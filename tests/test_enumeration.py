import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from msetperm import core
from msetperm.core import LENGTH3_PATTERNS, PatternSet, TRIPLE_REPEAT
from msetperm.enumeration import (
    count_avoiders,
    generate_all,
    list_avoiders,
    walk,
    word_counts_by_length,
)
from msetperm.errors import BudgetExceeded
from msetperm.growth import growth_table

from reference import (
    all_multiset_perms,
    all_regular_perms,
    extended_list,
    naive_contains,
    naive_avoids,
    naive_count,
    naive_list,
    naive_word_count,
)


def test_generate_all_small():
    perms = [str(s) for s in generate_all(2, (2, 2))]
    assert perms == ["1122", "1212", "1221", "2112", "2121", "2211"]


def test_generate_single_letter():
    assert [str(s) for s in generate_all(1, (3,))] == ["111"]


def test_generate_counts_match_multinomial():
    assert sum(1 for _ in generate_all(3, (2, 2, 2))) == 90
    assert sum(1 for _ in generate_all(3, (1, 2, 3))) == math.factorial(6) // (2 * 6)


def test_generate_is_lexicographic_and_duplicate_free():
    out = [s.letters for s in generate_all(3, (2, 1, 2))]
    assert out == sorted(out) and len(out) == len(set(out))


def test_count_examples():
    assert count_avoiders(3, 2, PatternSet.of("112", "122")) == 5
    assert count_avoiders(2, 3, PatternSet.of("122", "321")) == 4
    assert count_avoiders(2, 2, PatternSet.of("212")) == 3


def test_count_no_restriction_uses_multinomial():
    assert count_avoiders(4, 3, PatternSet(())) == math.factorial(12) // 6 ** 4
    # stays cheap far beyond the search budget
    assert count_avoiders(20, 5, PatternSet(())) == \
        math.factorial(100) // math.factorial(5) ** 20


def test_list_examples():
    listed = [str(s) for s in list_avoiders(2, 2, PatternSet.of("212"))]
    assert listed == ["1122", "1221", "2211"]
    assert [str(s) for s in list_avoiders(1, 4, PatternSet.of("122"))] == ["1111"]
    assert list_avoiders(3, 2, PatternSet.of("122", "211")) == []


def test_list_is_in_lex_order():
    letters = [s.letters for s in list_avoiders(3, 2, PatternSet.of("212"))]
    assert letters == sorted(letters)


def test_count_equals_list_length():
    for pats in (("112", "122"), ("212",), ("123",)):
        ps = PatternSet.of(*pats)
        assert count_avoiders(3, 2, ps) == len(list_avoiders(3, 2, ps))


def test_empty_alphabet():
    assert count_avoiders(0, 1, PatternSet.of("12")) == 1
    assert [s.letters for s in list_avoiders(0, 1, PatternSet.of("12"))] == [()]


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_avoiders(10, 2, PatternSet.of("123"))
    with pytest.raises(BudgetExceeded):
        list(generate_all(8, (2,) * 8))
    # the pruned counter gets a higher allowance than the materializing paths
    assert count_avoiders(8, 2, PatternSet.of("112", "122")) == 1430  # catalan(8)


def test_plain_walk_budget():
    # a pattern of length 4 or more is tested on every prefix, which joins
    # the state, so counting and listing stop at length 8 whatever the other
    # patterns
    for ps in (PatternSet.of("1234"), PatternSet.of("12345"), PatternSet.of("1234", "4321"),
               PatternSet.of("123", "2143")):
        for n, m in ((9, 1), (3, 3), (5, 2)):
            with pytest.raises(BudgetExceeded, match=f"length {n * m} exceeds the budget of 8"):
                count_avoiders(n, m, ps)
            with pytest.raises(BudgetExceeded, match=f"length {n * m} exceeds the budget of 8"):
                list_avoiders(n, m, ps)
    # length 8 is served: with 12 only the weakly decreasing word avoids
    for n, m in ((8, 1), (4, 2)):
        ps = PatternSet.of("12", "1234")
        assert count_avoiders(n, m, ps) == 1
        assert [s.letters for s in list_avoiders(n, m, ps)] == \
            [tuple(v for v in range(n, 0, -1) for _ in range(m))]
    # word counting tests such a pattern on every word, so it stops there too
    with pytest.raises(BudgetExceeded, match="length 9 exceeds the budget of 8"):
        word_counts_by_length(2, 9, PatternSet.of("1234"))
    assert len(word_counts_by_length(2, 8, PatternSet.of("1234"))) == 9
    # patterns of length at most 3 keep their budgets
    assert count_avoiders(9, 1, PatternSet.of("1", "123")) == 0
    assert count_avoiders(9, 1, PatternSet.of("123")) == 4862  # catalan(9)
    assert word_counts_by_length(2, 18, PatternSet.of("1", "123"))[18] == 0


def test_plain_word_budget():
    # with a pattern of length 4 or more every clean word is its own state,
    # so word counting stops once n ** max_length passes 4**8 = 65,536
    for ps in (PatternSet.of("1234"), PatternSet.of("12", "2143")):
        for n, max_length in ((5, 7), (5, 8), (17, 4), (300, 2)):
            with pytest.raises(BudgetExceeded, match=f"{n ** max_length} words of length "
                                                     f"{max_length} exceed the budget of 65536"):
                word_counts_by_length(n, max_length, ps)
    # 16**4 is within it, and patterns of length at most 3 keep their budget
    assert word_counts_by_length(16, 4, PatternSet.of("12", "2143")) == \
        [1, 16, 136, 816, 3876]
    assert len(word_counts_by_length(5, 8, PatternSet.of("123"))) == 9


# -- the heart of the oracle: exhaustive agreement with filter-after-generate --

def _single_patterns():
    return [PatternSet((p,)) for p in LENGTH3_PATTERNS + (TRIPLE_REPEAT,)]


def _pair_patterns():
    return [PatternSet((a, b))
            for a, b in itertools.combinations(LENGTH3_PATTERNS, 2)]


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 4), (2, 4), (4, 2)])
def test_pruned_search_matches_naive_filtering_single(n, m):
    for ps in _single_patterns():
        naive = naive_count(n, m, [p.letters for p in ps])
        assert count_avoiders(n, m, ps) == naive, f"pattern {ps}"


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (2, 4), (1, 6)])
def test_pruned_search_matches_naive_filtering_pairs(n, m):
    for ps in _pair_patterns():
        naive = naive_count(n, m, [p.letters for p in ps])
        assert count_avoiders(n, m, ps) == naive, f"pair {ps}"


def test_listing_matches_reference_filtering_for_every_length3_pair():
    # the listing walk never reaches a dead state; each of the 78 pairs of
    # the 13 canonical length-3 patterns lists what filtering every
    # permutation of [n]_m keeps, in order, at n*m <= 8 (m = 1: n <= 5)
    patterns = LENGTH3_PATTERNS + (TRIPLE_REPEAT,)
    for n, m in [(n, m) for m in range(1, 9) for n in range(0, 8 // m + 1)
                 if m > 1 or n <= 5]:
        perms = all_regular_perms(n, m)
        contained = {p: {s for s in perms if naive_contains(s, p.letters)}
                     for p in patterns}
        for a, b in itertools.combinations(patterns, 2):
            naive = [s for s in perms if s not in contained[a] and s not in contained[b]]
            listed = [s.letters for s in list_avoiders(n, m, PatternSet((a, b)))]
            assert listed == naive, f"{{{a},{b}}} at n={n}, m={m}"


def test_listing_reads_each_states_letters_once(monkeypatch):
    # Every _BLOCKS term evaluation is counted.  The transfer decides each
    # state's letters once, for every prefix that reaches it: listing
    # {122,123} on [6]_2 evaluates 4,738 terms (the recursive walk it
    # replaced took 13,864) and lists the 1,428 avoiders.
    evaluations = []
    for key, term in list(core._BLOCKS.items()):
        monkeypatch.setitem(core._BLOCKS, key, lambda *args, term=term:
                            evaluations.append(1) or term(*args))
    listed = list_avoiders(6, 2, PatternSet.of("122", "123"))
    assert len(evaluations) == 4_738
    letters = [s.letters for s in listed]
    assert len(letters) == 1428 == count_avoiders(6, 2, PatternSet.of("122", "123"))
    assert letters == sorted(set(letters))


def test_listing_refuses_a_prefix_that_is_not_a_permutation(monkeypatch):
    # each listed prefix is sorted and compared with the letters of mu: a
    # walk that emits 1123 on [2]_2 (the right length and alphabet, the
    # wrong copies) raises, where the constructor would take it
    from msetperm import enumeration

    def walk_with_a_bad_prefix(capacity, patterns, visit):
        visit((1, 1, 2, 2))
        visit((1, 1, 2, 3))
        return 2

    monkeypatch.setattr(enumeration, "walk", walk_with_a_bad_prefix)
    with pytest.raises(AssertionError, match="listed 1123, not a permutation"):
        list_avoiders(2, 2, PatternSet.of("123"))


def test_pruned_listing_matches_naive_filtering():
    ps = PatternSet.of("122", "213")
    naive = naive_list(3, 2, [p.letters for p in ps])
    assert [s.letters for s in list_avoiders(3, 2, ps)] == naive


def test_long_pattern_falls_back_to_generic_check():
    # 1234 avoidance on ordinary permutations: longest increasing run <= 3
    ps = PatternSet.of("1234")
    assert count_avoiders(4, 1, ps) == 23  # 4! - 1 (only 1234 contains it)
    naive = naive_count(3, 2, [(1, 2, 3, 4)])
    assert count_avoiders(3, 2, ps) == naive
    # the pattern 1 has no _BLOCKS entry either: every nonempty word contains it
    assert count_avoiders(2, 2, PatternSet.of("1")) == 0
    assert word_counts_by_length(3, 3, PatternSet.of("1")) == [1, 0, 0, 0]


def test_counts_invariant_under_pattern_symmetry():
    for ps in (_pair_patterns()[:20] + _single_patterns()):
        base = count_avoiders(2, 3, ps)
        assert count_avoiders(2, 3, ps.reverse()) == base
        assert count_avoiders(2, 3, ps.complement()) == base


# -- differential tests of the walk against the naive reference ----------------

#: Pattern sets of one to three patterns of length 1 to 4; the pattern 1 and
#: length-4 patterns take the direct containment check instead of the
#: blocked-letter mask.
pattern_sets = st.lists(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    min_size=1, max_size=3,
).map(lambda specs: PatternSet.of(*specs))
small_cells = st.sampled_from([(n, m) for n in range(0, 7) for m in range(1, 4)
                               if n * m <= 6])


@settings(max_examples=150, deadline=None)
@given(pattern_sets, small_cells)
def test_walk_matches_naive_reference(ps, cell):
    n, m = cell
    raw = [p.letters for p in ps]
    naive = naive_list(n, m, raw)
    assert count_avoiders(n, m, ps) == len(naive)
    assert [s.letters for s in list_avoiders(n, m, ps)] == naive


@pytest.mark.parametrize("specs", [("12", "1234"), ("1", "123"), ("111", "1212"),
                                   ("123", "1234"), ("2143", "12345"), ("1234",)])
def test_listing_with_a_pattern_tested_on_the_prefix_matches_naive_reference(specs):
    # a pattern without a _BLOCKS term is tested on each completion as the
    # backward build makes it, the whole word too: an occurrence of 1234
    # can end at the last letter.  The other sets add one with a term.
    # Every cell with n*m <= 8 but [7]_1 and [8]_1, whose 5,040 and 40,320
    # permutations take the reference up to 11 s.
    ps = PatternSet.of(*specs)
    for n, m in [(n, m) for m in range(1, 9) for n in range(8 // m + 1)
                 if _multinomial((m,) * n) <= 2520]:
        assert [s.letters for s in list_avoiders(n, m, ps)] == \
            naive_list(n, m, [p.letters for p in ps]), (specs, n, m)


@pytest.mark.parametrize("n, m", [(5, 2), (4, 3), (3, 4), (6, 2)])
def test_listing_builds_completions_past_dead_states(n, m):
    # most states the transfer reaches with {123,132} have no completion:
    # 242 states for 50 live ones at [5]_2, 728 for 72 at [6]_2.  A dead
    # state's list is empty, and the root's list is the listing, in order.
    assert [s.letters for s in list_avoiders(n, m, ("123", "132"))] == \
        extended_list((m,) * n, [(1, 2, 3), (1, 3, 2)])


def test_listing_keeps_two_levels_of_completions():
    # a level's completions are dropped once the level above is built:
    # listing {122,123} on [7]_2 (7,752 words of length 14) peaks at
    # 2.5-2.9 MB, keeping every level takes 4.5-5.6 MB, and the depth-first
    # walk this build replaced took 1.7 MB.  CPython keeps up to 2,000 freed
    # tuples of each short length for reuse, which tracemalloc does not
    # count again, so those lists are filled first.
    ps = PatternSet.of("122", "123")
    spare = [tuple(range(k)) for k in range(1, 20) for _ in range(2000)]
    del spare
    tracemalloc.start()
    try:
        assert len(list_avoiders(7, 2, ps)) == 7752
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_700_000, peak


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4)
       .filter(lambda mu: len(set(mu)) > 1 and sum(mu) <= 7))
def test_generate_all_matches_naive_generator_on_irregular_multisets(mu):
    out = [s.letters for s in generate_all(len(mu), mu)]
    assert out == all_multiset_perms(mu)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4)
       .filter(lambda mu: len(set(mu)) > 1 and sum(mu) <= 7),
       st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
                min_size=1, max_size=2).map(lambda specs: PatternSet.of(*specs)))
def test_walk_drops_only_dead_prefixes_on_irregular_multisets(mu, ps):
    # every letter must be placed, so the walk drops a prefix as soon as some
    # letter with copies left would complete a pattern
    naive = [s for s in all_multiset_perms(mu)
             if naive_avoids(s, [p.letters for p in ps])]
    capacity = (0,) + tuple(mu)
    seen = []
    assert walk(capacity, ps, lambda prefix: seen.append(tuple(prefix)) or True) == len(naive)
    assert seen == naive
    assert walk(capacity, ps) == len(naive)


# -- counting against listing -------------------------------------------------

def _multinomial(mu):
    return math.factorial(sum(mu)) // math.prod(math.factorial(k) for k in mu)


#: One or two patterns of length 2 or 3: each has an O(1) blocked-letter
#: term, so a count with no visit stops one level short of the listing.
count_pattern_sets = st.lists(
    st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3),
    min_size=1, max_size=2,
).map(lambda specs: PatternSet.of(*specs))
#: Regular multisets [n]_m and irregular ones, at most 9 copies in all and
#: few enough permutations for the naive reference.
count_multisets = st.one_of(
    st.sampled_from([(m,) * n for n in range(1, 10) for m in range(1, 5)
                     if n * m <= 9 and _multinomial((m,) * n) <= 2520]),
    st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=6)
    .filter(lambda mu: sum(mu) <= 9 and _multinomial(mu) <= 2520),
)


@settings(max_examples=100, deadline=None)
@given(count_multisets, count_pattern_sets)
def test_count_transfer_matches_listing_and_reference(mu, ps):
    capacity = (0,) + tuple(mu)
    counted = walk(capacity, ps)
    visited = []
    walk(capacity, ps, lambda prefix: visited.append(1) or True)
    naive = sum(1 for s in all_multiset_perms(mu)
                if naive_avoids(s, [p.letters for p in ps]))
    assert counted == len(visited) == naive


@pytest.mark.parametrize("pair,count", [(("121", "123"), 1660), (("121", "132"), 7084),
                                        (("123", "132"), 76460), (("123", "231"), 906),
                                        (("132", "231"), 5120)])
def test_counts_at_the_widest_levels_within_the_budget(pair, count):
    # n*m = 18 at [6]_3 is the counting budget, and its levels hold up to
    # 4**6 states; the counts are pinned from the recursive walk that the
    # transfer replaced
    assert count_avoiders(6, 3, pair) == count


@pytest.mark.parametrize("n,max_length", [(0, 7), (1, 7), (2, 7), (3, 5)])
def test_word_counts_match_naive_reference_at_every_length(n, max_length):
    # at n = 1 every length has at most one word, which the transfer must
    # still count at each length, not only at max_length
    for ps in _pair_patterns() + [PatternSet((TRIPLE_REPEAT, p))
                                  for p in LENGTH3_PATTERNS]:
        raw = [p.letters for p in ps]
        assert word_counts_by_length(n, max_length, ps) == \
            [naive_word_count(n, length, raw) for length in range(max_length + 1)], \
            f"{ps} at n={n}"


# -- the word transfer ---------------------------------------------------------

#: Patterns whose term reads only the appended letter, reads present (lower
#: or upper), or reads again: the three kinds of state the transfer's state
#: must cover.
APPENDED_ONLY = ("12", "21", "11")
READS_PRESENT = tuple(str(p) for p in LENGTH3_PATTERNS if p.letters[0] != p.letters[1])
READS_AGAIN = ("112", "221", "111")
word_pattern_sets = st.lists(
    st.one_of(st.sampled_from(APPENDED_ONLY), st.sampled_from(READS_PRESENT),
              st.sampled_from(READS_AGAIN)),
    min_size=1, max_size=3,
).map(lambda specs: PatternSet.of(*specs))
#: Alphabets and word lengths with at most 1,024 words of the full length.
word_cells = st.sampled_from([(n, length) for n in range(0, 5) for length in range(0, 8)
                              if n ** length <= 1024])


def _plain_word_counts(n, max_length, ps):
    """Word counts of every length by a depth-first search over the words
    themselves: each word steps its own masks by core._advance, full width,
    and no two words share a state.  The last letter is clean when it is
    not blocked, so the longest words are counted from their prefixes."""
    terms = tuple(core._BLOCKS[p.letters] for p in ps)
    counts = [0] * (max_length + 1)
    letters = (1 << n + 1) - 2

    def extend(masks, length):
        counts[length] += 1
        if length == max_length - 1:
            counts[max_length] += (letters & ~masks[1]).bit_count()
        elif length < max_length:
            for v in range(1, n + 1):
                child = core._advance(*masks, v, terms)
                if child is not None:
                    extend(child, length + 1)

    extend((0, 0), 0)
    return counts


@settings(max_examples=150, deadline=None)
@given(word_pattern_sets, word_cells)
def test_word_transfer_matches_plain_walk_and_reference(ps, cell):
    n, max_length = cell
    raw = [p.letters for p in ps]
    naive = [naive_word_count(n, length, raw) for length in range(max_length + 1)]
    assert word_counts_by_length(n, max_length, ps) == \
        _plain_word_counts(n, max_length, ps) == naive


@pytest.mark.parametrize("n,max_length", [(6, 8), (5, 9)])
def test_word_transfer_matches_plain_walk_beyond_the_reference(n, max_length):
    for specs in (("12",), ("11", "21"), ("123",), ("132", "212"), ("132", "213"),
                  ("112",), ("112", "312"), ("221", "213"), ("111", "121"),
                  ("112", "122", "12")):
        ps = PatternSet.of(*specs)
        assert word_counts_by_length(n, max_length, ps) == \
            _plain_word_counts(n, max_length, ps), specs


def test_word_lengths_share_one_memo(monkeypatch):
    # Every _BLOCKS term evaluation is counted.  Counting the {132,213}-words
    # of lengths 0..10 over [6] reaches 302 states, and the transfer computes
    # each state's steps once for all lengths: 1,864 terms.
    evaluations = []
    for key, term in list(core._BLOCKS.items()):
        monkeypatch.setitem(core._BLOCKS, key, lambda *args, term=term:
                            evaluations.append(1) or term(*args))
    counts = word_counts_by_length(6, 10, PatternSet.of("132", "213"))
    assert len(evaluations) == 1_864
    assert counts == [1, 6, 36, 176, 716, 2532, 8090, 24010, 67455, 181752, 474028]


@pytest.mark.parametrize("specs", [("12", "1234"), ("1", "123"), ("111", "1212"),
                                   ("2143", "12345")])
def test_word_states_with_masks_and_a_word_match_naive_reference(specs):
    # a pattern with no _BLOCKS term puts the word in the state next to the
    # masks of the patterns that have one
    ps = PatternSet.of(*specs)
    raw = [p.letters for p in ps]
    for n in range(4):
        assert word_counts_by_length(n, 6, ps) == \
            [naive_word_count(n, length, raw) for length in range(7)], f"{ps} at n={n}"


def test_every_spec_form_gives_the_same_counts_listings_and_word_counts():
    # a tuple of strings takes the cached reading; a PatternSet passes
    # through; lists of letters are read on each call
    for pair in (("122", "213"), ("121", "132"), ("111", "1234")):
        forms = (pair, PatternSet.of(*pair), [list(map(int, p)) for p in pair],
                 tuple(list(map(int, p)) for p in pair))
        for n, m in ((0, 1), (3, 1), (3, 2), (2, 3)):
            assert len({count_avoiders(n, m, ps) for ps in forms}) == 1, (pair, n, m)
            assert len({tuple(list_avoiders(n, m, ps)) for ps in forms}) == 1, (pair, n, m)
        assert len({tuple(word_counts_by_length(3, 5, ps)) for ps in forms}) == 1, pair
        rows = {tuple(growth_table(ps, [(2, 2), (3, 2)])) for ps in forms}
        assert len(rows) == 1, pair


def test_counting_keeps_no_listing_steps():
    # the counting transfer holds two levels of (state, count) and nothing
    # per state besides: counting {121,132} on [6]_3 (7,084 avoiders) peaks
    # at about 0.15 MB; storing each state's allowed letters too takes 1.2 MB
    tracemalloc.start()
    try:
        assert count_avoiders(6, 3, ("121", "132")) == 7084
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


def test_counting_never_calls_the_containment_check(monkeypatch):
    # count_avoiders and word_counts_by_length on pairs of length-3 patterns
    # decide every prefix with the walk's masks; find_occurrence, and so its
    # scan automata, stay off the counting paths
    calls = []
    occurrence = core.find_occurrence
    monkeypatch.setattr(core, "find_occurrence",
                        lambda sigma, pi: calls.append(pi) or occurrence(sigma, pi))
    pairs = list(itertools.combinations(LENGTH3_PATTERNS, 2))
    assert len(pairs) == 66
    for pair in pairs:
        ps = PatternSet(pair)
        for n, m in ((1, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
            count_avoiders(n, m, ps)
        word_counts_by_length(3, 5, ps)
    assert calls == []
    assert core.contains((1, 2), core.Pattern.parse("12")) and len(calls) == 1
