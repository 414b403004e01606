import itertools
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from msetperm import core
from msetperm.core import (
    LENGTH3_PATTERNS,
    TRIPLE_REPEAT,
    MultisetPermutation,
    Pattern,
    PatternSet,
    contains,
    find_occurrence,
    first_ascent,
    first_descent,
    first_repetition,
    left_to_right_minima,
    normalize_pattern,
)
from msetperm.enumeration import count_avoiders, generate_all, list_avoiders
from msetperm.errors import (
    InvalidPattern,
    InvalidPermutation,
    UnsupportedSymmetry,
)

from reference import naive_contains

SRC = str(Path(core.__file__).resolve().parents[1])


P = MultisetPermutation.parse


class TestNormalize:
    def test_relabels_preserving_order(self):
        assert normalize_pattern((2, 7, 5)).letters == (1, 3, 2)

    def test_relabels_preserving_equalities(self):
        assert normalize_pattern((4, 6, 6, 4)).letters == (1, 2, 2, 1)

    def test_identity_on_canonical(self):
        assert normalize_pattern((1, 3, 2)).letters == (1, 3, 2)

    def test_rejects_empty(self):
        with pytest.raises(InvalidPattern):
            normalize_pattern(())

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
    def test_idempotent(self, raw):
        once = normalize_pattern(raw)
        assert normalize_pattern(once.letters) == once

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
    def test_output_order_isomorphic_to_input(self, raw):
        out = normalize_pattern(raw).letters
        for a in range(len(raw)):
            for b in range(len(raw)):
                assert (raw[a] < raw[b]) == (out[a] < out[b])


class TestContainment:
    def test_ordinary_pattern_found(self):
        assert contains(P("21543"), Pattern.parse("132"))

    def test_ordinary_pattern_missing(self):
        assert not contains(P("21543"), Pattern.parse("123"))

    def test_multiset_pattern_needs_repeats(self):
        sigma = P("11242334")
        assert not contains(sigma, Pattern.parse("221"))
        assert contains(sigma, Pattern.parse("122"))
        assert contains(sigma, Pattern.parse("132"))

    def test_occurrence_positions_are_1_based_and_match(self):
        sigma = P("21543")
        occ = find_occurrence(sigma, Pattern.parse("132"))
        assert occ is not None and len(occ) == 3
        sub = [sigma.letters[i - 1] for i in occ]
        assert normalize_pattern(sub).letters == (1, 3, 2)

    def test_avoids_all(self):
        sigma = P("11242334")
        assert not contains(sigma, PatternSet.of("221"))
        assert contains(sigma, PatternSet.of("132", "122"))
        assert not contains(sigma, PatternSet(()))

    def test_longer_pattern_than_host(self):
        assert not contains(P("11"), Pattern.parse("123"))

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=7),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    )
    def test_agrees_with_subsequence_scan(self, sigma, raw):
        pattern = normalize_pattern(raw)
        assert contains(tuple(sigma), pattern) == naive_contains(sigma, pattern.letters)

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    )
    def test_containment_is_monotone_under_extension(self, prefix, suffix, raw):
        # the pruning soundness of the enumeration oracle rests on this
        pattern = normalize_pattern(raw)
        if contains(tuple(prefix), pattern):
            assert contains(tuple(prefix + suffix), pattern)


SCANNED = LENGTH3_PATTERNS + (TRIPLE_REPEAT,)  # the 13 canonical length-3 patterns


class TestScan:
    """find_occurrence decides the patterns of length 2 and 3 with the mask
    scan and locates a hit with the backtracking search."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
               lambda k: st.lists(st.integers(min_value=1, max_value=k), max_size=10)),
           st.sampled_from(SCANNED + tuple(Pattern(p) for p in ((1, 2), (2, 1), (1, 1)))))
    def test_agrees_with_reference_in_verdict_and_positions(self, word, pattern):
        k = len(pattern)
        first = next((tuple(i + 1 for i in idx)
                      for idx in itertools.combinations(range(len(word)), k)
                      if naive_contains([word[i] for i in idx], pattern.letters)), None)
        assert (first is not None) == naive_contains(word, pattern.letters)
        hosts = [tuple(word)]
        if set(word) == set(range(1, max(word, default=0) + 1)):
            hosts.append(MultisetPermutation(tuple(word)))
        for host in hosts:
            assert find_occurrence(host, pattern) == first

    def test_letters_below_one(self):
        for word in ((0, 2, 1), (-1, -3, -2), (0, -1, 0, 2)):
            for pattern in SCANNED:
                hit = find_occurrence(word, pattern)
                assert (hit is not None) == naive_contains(word, pattern.letters)
        assert find_occurrence((0, 2, 1), Pattern.parse("132")) == (1, 2, 3)
        assert find_occurrence((-1, -3, -2), Pattern.parse("132")) is None

    def test_avoiders_never_take_the_fallback(self, monkeypatch):
        # A scan that reports false hits still answers right, since the
        # backtracking search then finds nothing; this counter catches it.
        avoiders = {p: [sigma for n in range(1, 9) for m in range(1, 8 // n + 1)
                        for sigma in list_avoiders(n, m, PatternSet((p,)))]
                    for p in SCANNED}
        calls = []
        general = core._occurrence_general

        def counted(letters, pat):
            calls.append((letters, pat))
            return general(letters, pat)

        monkeypatch.setattr(core, "_occurrence_general", counted)
        for p, sigmas in avoiders.items():
            assert sigmas
            for sigma in sigmas:
                assert find_occurrence(sigma, p) is None
        assert calls == []
        assert find_occurrence(P("123"), Pattern.parse("123")) == (1, 2, 3)
        assert len(calls) == 1


def _first_hit(word, patterns):
    """The first per-pattern occurrence, in set order."""
    return next((hit for p in patterns if (hit := find_occurrence(word, p)) is not None),
                None)


class TestSetScan:
    """find_occurrence on a PatternSet answers as the patterns one by one in
    set order would, with one scan when every pattern has a _BLOCKS entry."""

    def test_every_length3_pair_on_every_small_permutation(self):
        # the 78 pairs of the 13 canonical length-3 patterns (111 included),
        # on every permutation of [n]_m with n*m <= 8, m >= 2, and of [n]_1
        # with n <= 5
        words = [sigma for m in range(1, 9) for n in range(0, 8 // m + 1)
                 if m > 1 or n <= 5 for sigma in generate_all(n, (m,) * n)]
        pairs = list(itertools.combinations(SCANNED, 2))
        assert len(pairs) == 78
        for sigma in words:
            single = {p: find_occurrence(sigma, p) for p in SCANNED}
            for a, b in pairs:
                ps = PatternSet((a, b))
                first, second = ps.patterns
                expected = single[first] if single[first] is not None else single[second]
                assert find_occurrence(sigma, ps) == expected, (sigma, ps)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=-2, max_value=3), max_size=8),
           st.lists(st.sampled_from(("1", "11", "12", "21", "112", "132", "111", "1234",
                                     "2143", "1212")), max_size=3))
    def test_sets_mixing_lengths_one_to_four(self, word, specs):
        # the pattern 1 and length-4 patterns have no _BLOCKS entry, so a set
        # holding one takes the pattern-by-pattern search
        ps = PatternSet.of(*specs)
        hit = find_occurrence(word, ps)
        assert hit == _first_hit(word, ps)
        assert (hit is None) == all(not naive_contains(word, p.letters) for p in ps)
        assert contains(word, ps) == (hit is not None)

    def test_empty_set(self):
        for word in ((), (1,), P("2121"), (5, -1, 3)):
            assert find_occurrence(word, PatternSet(())) is None
            assert not contains(word, PatternSet(()))

    def test_a_hit_names_the_first_pattern_in_set_order(self):
        ps = PatternSet.of("132", "122")
        # 1322 holds 122 at 1,3,4 and 132 at 1,2,3; 122 comes first in the set
        assert find_occurrence(P("1322"), ps) == (1, 3, 4)
        assert find_occurrence(P("2132"), ps) == (2, 3, 4)


class TestRawLetters:
    """A raw sequence is scanned by its letters' ranks: any integers, and
    memory that does not grow with the largest letter."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from((-10 ** 12, -7, -1, 0, 3, 10 ** 7, 10 ** 18)),
                    max_size=7),
           st.sampled_from(SCANNED + tuple(Pattern(p) for p in ((1, 2), (2, 1), (1, 1)))))
    def test_negative_and_huge_letters_agree_with_reference(self, word, pattern):
        k = len(pattern)
        first = next((tuple(i + 1 for i in idx)
                      for idx in itertools.combinations(range(len(word)), k)
                      if naive_contains([word[i] for i in idx], pattern.letters)), None)
        assert find_occurrence(word, pattern) == first

    def test_letters_below_one_take_the_scan(self, monkeypatch):
        calls = []
        general = core._occurrence_general
        monkeypatch.setattr(core, "_occurrence_general",
                            lambda letters, pat: calls.append(pat) or general(letters, pat))
        assert find_occurrence((0, -5, 7, -5), PatternSet.of("123", "132")) is None
        assert calls == []

    def test_huge_letters_cost_memory_linear_in_the_length(self):
        tracemalloc.start()
        try:
            assert contains((1, 10 ** 7), Pattern.parse("12"))
            assert not contains((10 ** 7, 1), Pattern.parse("12"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak


def _random_words(rng, count, max_length):
    """Raw sequences over a few small letters, negative and huge ones too."""
    pools = ((1, 2, 3), (1, 2, 3, 4, 5, 6), (-10 ** 12, -3, 0, 2, 10 ** 18), tuple(range(40)))
    return [tuple(rng.choice(pool) for _ in range(rng.randint(0, max_length)))
            for pool in (rng.choice(pools) for _ in range(count))]


def _backtracking_first_hit(word, patterns):
    """The first occurrence of a pattern in set order, by backtracking alone."""
    return next((tuple(i + 1 for i in hit) for p in patterns
                 if (hit := core._occurrence_general(tuple(word), p.letters)) is not None),
                None)


class TestScanAutomaton:
    """The scan automata are built lazily and bounded: with a small cap a
    table fills at once, later steps are computed on every scan, and every
    answer stays the same."""

    SETS = [PatternSet((p,)) for p in SCANNED] + [
        PatternSet(pair) for pair in itertools.combinations(SCANNED, 2)][::7] + [
        PatternSet.of("12"), PatternSet.of("21", "111"), PatternSet.of("112", "212", "321")]

    def test_a_small_cap_changes_no_answer_and_bounds_every_table(self, monkeypatch):
        monkeypatch.setattr(core, "_SCAN_STEPS", 16)
        monkeypatch.setattr(core, "_TABLES", {})
        rng = random.Random(24)
        calls = []
        general = core._occurrence_general
        monkeypatch.setattr(core, "_occurrence_general",
                            lambda letters, pat: calls.append(pat) or general(letters, pat))
        for word in _random_words(rng, 3000, 14):
            ps = rng.choice(self.SETS)
            expected = _backtracking_first_hit(word, ps)
            before = len(calls)
            assert find_occurrence(word, ps) == expected, (word, ps)
            if expected is None:
                # an avoider is decided by the automaton alone
                assert len(calls) == before, (word, ps)
        assert len(core._TABLES) > len(SCANNED)
        for table in core._TABLES.values():
            stored = sum(len(state) for state in table.states.values())
            assert stored <= table.steps <= 16
            assert len(table.states) <= 17

    def test_scans_past_a_full_table_agree_with_backtracking(self, monkeypatch):
        # with a cap of 8 every table fills within its first scans, and most
        # of these 30 to 40 letter near-monotone words run on past it
        monkeypatch.setattr(core, "_SCAN_STEPS", 8)
        monkeypatch.setattr(core, "_TABLES", {})
        rng = random.Random(26)
        jobs = []
        for _ in range(400):
            word = sorted(rng.choices(range(1, 9), k=rng.randint(30, 40)),
                          reverse=rng.random() < 0.5)
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(word) - 1)
                word[i], word[i + 1] = word[i + 1], word[i]
            jobs.append((tuple(word), rng.choice(self.SETS)))
        expected = [_backtracking_first_hit(word, ps) for word, ps in jobs]
        assert sum(hit is None for hit in expected) > 100
        assert sum(hit is not None and hit[-1] > 8 for hit in expected) > 30
        for _ in range(2):  # the first scans fill the tables, the second repeat them
            assert [find_occurrence(word, ps) for word, ps in jobs] == expected
            steps = [table.steps for table in core._TABLES.values()]
            assert max(steps) == 8 and steps.count(8) >= 20

    def test_memory_stays_bounded_over_long_random_scans(self, monkeypatch):
        # a cap these scans reach: under the default they store all but a few
        # of their steps, so the bound below would test nothing
        monkeypatch.setattr(core, "_SCAN_STEPS", 1024)
        monkeypatch.setattr(core, "_TABLES", {})
        rng = random.Random(2024)
        words = [tuple(rng.randrange(40) for _ in range(40)) for _ in range(3000)]
        sets = [PatternSet.of("132", "213"), PatternSet.of("122", "123"),
                PatternSet.of("112", "212", "321")]
        tracemalloc.start()
        try:
            for i, word in enumerate(words):
                find_occurrence(word, sets[i % 3])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # on CPython 3.11 a stored step and its state take about 450 bytes;
        # without the cap these scans hold 9.8 MB, and more with every scan
        assert all(table.steps <= core._SCAN_STEPS for table in core._TABLES.values())
        assert held < 700 * core._SCAN_STEPS * len(core._TABLES), held

    def test_threads_sharing_the_tables_get_the_same_answers(self, monkeypatch):
        # a small cap makes the four threads fill the tables they share
        monkeypatch.setattr(core, "_SCAN_STEPS", 8)
        monkeypatch.setattr(core, "_TABLES", {})
        rng = random.Random(7)
        jobs = [(word, rng.choice(self.SETS)) for word in _random_words(rng, 1200, 10)]
        expected = [_backtracking_first_hit(word, ps) for word, ps in jobs]
        mismatches = []

        def work(offset):
            for i in range(offset, len(jobs), 4):
                if find_occurrence(*jobs[i]) != expected[i]:
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_import_builds_no_table(self):
        code = "import msetperm, msetperm.core as c; print(len(c._TABLES))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "0"

    def test_each_tuple_of_terms_has_its_own_table(self):
        # 12 blocks every letter above one seen, 21 every letter below: one
        # table for both would answer the second from the first's steps
        for _ in range(2):
            assert find_occurrence((1, 2), Pattern.parse("12")) == (1, 2)
            assert find_occurrence((1, 2), Pattern.parse("21")) is None
            assert find_occurrence((2, 1), Pattern.parse("12")) is None
            assert find_occurrence((2, 1), Pattern.parse("21")) == (1, 2)


class TestPatternSetInput:
    def test_every_spec_form_reads_as_the_same_set(self):
        expected = PatternSet.of("122", "213")
        assert core.as_pattern_set(expected) is expected
        for specs in (("122", "213"), ("213", "233", "122"), ((1, 2, 2), (2, 1, 3)),
                      ([1, 2, 2], [2, 1, 3]), [[1, 2, 2], [2, 1, 3]], ["122", "213"],
                      (Pattern.parse("122"), "546")):
            assert core.as_pattern_set(specs) == expected, specs

    def test_a_hashable_tuple_is_read_once(self, monkeypatch):
        # the 17 cells of the n*m <= 12 grid with 2 <= m <= 6 count one
        # string pair; each of its two strings is parsed once, not once a cell
        parses = []
        parse = core.Pattern.parse.__func__
        monkeypatch.setattr(core.Pattern, "parse", classmethod(
            lambda cls, text: parses.append(text) or parse(cls, text)))
        core._read_pattern_set.cache_clear()
        cells = [(n, m) for m in range(2, 7) for n in range(1, 12 // m + 1)]
        assert len(cells) == 17
        for n, m in cells:
            count_avoiders(n, m, ("122", "213"))
        assert sorted(parses) == ["122", "213"]
        # a list is not hashable, so it is read on each call
        for n, m in cells[:3]:
            count_avoiders(n, m, ["122", "213"])
        assert len(parses) == 2 + 3 * 2
        assert core._read_pattern_set.cache_info().maxsize is not None

    def test_a_bad_spec_raises_on_every_call(self):
        core._read_pattern_set.cache_clear()
        for specs in (("122", "1x2"), ("122", "()"), ("122", (0, 1))):
            for _ in range(2):
                with pytest.raises(InvalidPattern):
                    core.as_pattern_set(specs)
                with pytest.raises(InvalidPattern):
                    count_avoiders(2, 2, specs)

    def test_a_string_is_refused_as_a_set(self):
        # read letter by letter, "123" would be the set {1, 2, 3}, which only
        # the empty word avoids; ("123") is that string too
        from msetperm.classify import canonical_pair
        from msetperm.enumeration import word_counts_by_length
        from msetperm.growth import growth_table
        calls = [lambda: count_avoiders(4, 2, "123"), lambda: word_counts_by_length(2, 3, "12"),
                 lambda: growth_table("212", [(2, 2)]), lambda: list_avoiders(1, 2, "11"),
                 lambda: canonical_pair("12")]
        for call in calls:
            with pytest.raises(InvalidPattern, match=r"write \('.*',\) or PatternSet\.of"):
                call()
        assert count_avoiders(4, 2, ("123",)) == 352
        assert word_counts_by_length(2, 3, ("12",)) == [1, 2, 3, 4]
        assert growth_table(("212",), [(2, 2)])[0].count == 3
        assert [s.letters for s in list_avoiders(2, 1, ("11",))] == [(1, 2), (2, 1)]
        assert canonical_pair(("12", "21")) == PatternSet.of("12", "21")


class TestSymmetry:
    def test_reverse_palindrome(self):
        assert P("1221").reverse() == P("1221")

    def test_complement_ordinary(self):
        assert P("132").complement().letters == (3, 1, 2)

    def test_complement_regular(self):
        assert P("1122").complement().letters == (2, 2, 1, 1)

    def test_complement_refused_on_irregular(self):
        sigma = MultisetPermutation((1, 1, 2))
        with pytest.raises(UnsupportedSymmetry):
            sigma.complement()

    def test_involutions_and_commutation(self):
        for text in ("1122", "2121", "331221", "123321"):
            sigma = P(text)
            assert sigma.reverse().reverse() == sigma
            assert sigma.complement().complement() == sigma
            assert sigma.reverse().complement() == sigma.complement().reverse()

    def test_containment_transport(self):
        # contains(s, p) is preserved by applying the same symmetry to both
        from reference import all_regular_perms
        patterns = [Pattern.parse(t) for t in ("123", "132", "112", "212")]
        for letters in all_regular_perms(2, 2) + all_regular_perms(3, 2)[:40]:
            sigma = MultisetPermutation(tuple(letters))
            for p in patterns:
                hit = contains(sigma, p)
                assert contains(sigma.reverse(), p.reverse()) == hit
                assert contains(sigma.complement(), p.complement()) == hit


class TestStatistics:
    def test_first_repetition_examples(self):
        assert first_repetition((2, 1, 2, 1)) == 3
        assert first_repetition((3, 3, 2, 1, 2, 1)) == 2
        assert first_repetition((3, 2, 3, 1, 2, 1)) == 3
        assert first_repetition((3, 2, 1, 3, 2, 1)) == 4

    def test_first_ascent_branch_example(self):
        assert first_ascent(tuple(P("332221311").letters)) == 7

    def test_empty_conventions(self):
        for statistic in (first_repetition, first_ascent, first_descent):
            assert statistic(()) == 1

    def test_sentinels(self):
        sigma = P("332211")  # weakly decreasing: no ascent
        assert first_ascent(sigma.letters) == len(sigma) + 1
        assert first_descent(sigma.letters) == 3
        rising = P("112233")
        assert first_descent(rising.letters) == len(rising) + 1
        assert first_repetition((1, 2, 3)) == 4

    def test_sentinel_iff_monotone(self):
        from reference import all_regular_perms
        for letters in all_regular_perms(3, 2):
            weakly_decreasing = all(a >= b for a, b in zip(letters, letters[1:]))
            weakly_increasing = all(a <= b for a, b in zip(letters, letters[1:]))
            assert (first_ascent(letters) == 7) == weakly_decreasing
            assert (first_descent(letters) == 7) == weakly_increasing

    def test_first_descent(self):
        assert first_descent((1, 2, 1)) == 3
        assert first_descent((1, 1, 2)) == 4


class TestMinima:
    def test_worked_example(self):
        sigma = P("43421231")
        positions = left_to_right_minima(sigma)
        values = [sigma.letters[i - 1] for i in positions]
        assert values == [4, 3, 2, 1, 1]
        assert positions == (1, 2, 4, 5, 8)

    def test_strictly_increasing(self):
        assert left_to_right_minima((1, 2, 3, 4)) == (1,)

    def test_constant_word(self):
        assert left_to_right_minima((1, 1, 1)) == (1, 2, 3)


class TestTypesAndParsing:
    def test_letters_are_checked_on_construction(self):
        with pytest.raises(InvalidPermutation) as exc:
            MultisetPermutation((1, 3, 3))
        assert str(exc.value) == "letters [2] missing from alphabet [1..3]"
        with pytest.raises(InvalidPermutation) as exc:
            MultisetPermutation((0, 1))
        assert str(exc.value) == "letters must be positive integers"
        with pytest.raises(InvalidPermutation) as exc:
            MultisetPermutation((1, 3, 5))
        assert str(exc.value) == "letters [2, 4] missing from alphabet [1..5]"
        with pytest.raises(InvalidPermutation) as exc:
            MultisetPermutation((1, 99999))
        assert str(exc.value) == ("letters [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...] "
                                  "missing from alphabet [1..99999]")

    def test_alphabet_and_multiplicity_are_read_off_the_letters(self):
        sigma = MultisetPermutation((2, 1, 2, 1))
        assert sigma.alphabet_size == 2
        assert sigma.multiplicity == (2, 2)
        assert sigma.regular_m == 2
        for same in (P("2121"), MultisetPermutation.regular((2, 1, 2, 1), 2, 2)):
            assert same == sigma and hash(same) == hash(sigma)
        assert MultisetPermutation((1, 1, 2)).regular_m is None
        empty = MultisetPermutation(())
        assert (empty.alphabet_size, empty.multiplicity, empty.regular_m) == (0, (), 1)

    def test_letters_are_stored_as_a_tuple(self):
        from_list = MultisetPermutation([1, 2])
        assert from_list.letters == (1, 2)
        assert from_list == MultisetPermutation((1, 2))
        assert hash(from_list) == hash(MultisetPermutation((1, 2)))
        assert len({from_list, MultisetPermutation((1, 2))}) == 1

    def test_regular_refuses_another_multiset(self):
        for letters, n, m in (((1, 1, 2), 2, 1), ((1, 1, 2, 2), 3, 2), ((1, 1), 1, 3)):
            with pytest.raises(InvalidPermutation):
                MultisetPermutation.regular(letters, n, m)

    def test_regular_agrees_with_the_constructor_and_slices(self):
        # regular's sort-and-compare against [n]_m, and the definition it
        # replaced (the constructor, then one sort and two slices): the same
        # value, or the same error and message, on every word over {1..4}
        # of length <= 6, for n, m in -2..4
        accepted = 0
        for length in range(7):
            for letters in itertools.product(range(1, 5), repeat=length):
                try:
                    sigma, refused = MultisetPermutation(letters), None
                except InvalidPermutation as exc:
                    refused = (InvalidPermutation, str(exc))
                s = sorted(letters)
                for n, m in itertools.product(range(-2, 5), repeat=2):
                    if refused:
                        expected = refused
                    elif len(s) != n * m or s and (s[-1] != n or s[::m] != s[m - 1::m]):
                        expected = (InvalidPermutation,
                                    f"{sigma} is not a permutation of [{n}]_{m}")
                    else:
                        expected = (MultisetPermutation, letters)
                        accepted += 1
                    try:
                        actual = MultisetPermutation.regular(letters, n, m)
                        actual = (type(actual), actual.letters)
                    except Exception as exc:
                        actual = (type(exc), str(exc))
                    assert actual == expected, (letters, n, m)
        # () at the 13 pairs with n * m = 0, and the 152 words of [n]_m
        # with 1 <= n, m <= 4 and n * m <= 6
        assert accepted == 13 + 152

    def test_generated_permutations_carry_their_multiset(self):
        sigmas = list(generate_all(3, (2, 1, 2)))
        assert len(sigmas) == 30
        assert all(sigma.multiplicity == (2, 1, 2) for sigma in sigmas)

    def test_huge_letters_cost_memory_linear_in_the_input(self):
        # the checks read min, max and the set of letters, never range(max)
        for build, error in ((MultisetPermutation, InvalidPermutation),
                             (Pattern, InvalidPattern)):
            tracemalloc.start()
            try:
                with pytest.raises(error):
                    build((1, 10 ** 6))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (build.__name__, peak)

    def test_unparsable_input_raises_the_readers_error(self):
        for text in ("102", "1 x"):
            with pytest.raises(InvalidPattern):
                Pattern.parse(text)
        with pytest.raises(InvalidPermutation):
            MultisetPermutation.parse("1 x")
        with pytest.raises(InvalidPermutation):
            MultisetPermutation.parse("11a")

    def test_the_empty_permutation_reads_back_from_its_text(self):
        empty = MultisetPermutation(())
        assert str(empty) == "()"
        assert MultisetPermutation.parse(" () ") == empty
        with pytest.raises(InvalidPattern, match="patterns must be nonempty"):
            Pattern.parse("()")

    def test_wide_alphabet_round_trip(self):
        text = "10 9 8 7 6 5 4 3 2 1 10 9 8 7 6 5 4 3 2 1"
        sigma = P(text)
        assert sigma.alphabet_size == 10 and sigma.regular_m == 2
        assert str(sigma) == text

    def test_compact_round_trip(self):
        assert str(P("44323121")) == "44323121"

    def test_pattern_set_dedup_and_order(self):
        ps = PatternSet.of("212", "112", "212")
        assert [str(p) for p in ps] == ["112", "212"]

    def test_pattern_set_keeps_the_patterns_it_is_given(self):
        a, b = Pattern.parse("213"), Pattern.parse("122")
        ps = PatternSet((a, b, Pattern.parse("213")))
        assert len(ps) == 2
        assert ps.patterns[0] is b and ps.patterns[1] is a

    def test_pattern_rejects_non_reduced(self):
        with pytest.raises(InvalidPattern):
            Pattern((1, 3))
