import itertools

import pytest

from msetperm.classify import (
    canonical_pair,
    classify_all_length3,
    count_vector,
    empirical_wilf_classes,
    symmetry_closure,
)
from msetperm.core import PatternSet
from msetperm.enumeration import count_avoiders
from msetperm.errors import BudgetExceeded, Unsupported

PAPER_MIXED_PAIRS = [
    ("212", "123"), ("212", "132"), ("122", "123"), ("122", "132"),
    ("211", "213"), ("122", "213"), ("122", "312"), ("122", "321"),
]


def _pairs(cls):
    return {(str(a), str(b)) for a, b in cls.members}


#: The twelve length-3 patterns over at least two values, and 111.
PATTERNS_WITH_111 = ("123", "132", "213", "231", "312", "321",
                     "112", "121", "211", "122", "212", "221", "111")


def _letter_orbit(a, b):
    """The orbit of the pair {a, b} of letter tuples under {id, r, c, rc},
    as frozensets of letter tuples: built on the letters alone, apart from
    the reverse and complement of Pattern and PatternSet."""
    def reverse(w):
        return w[::-1]

    def complement(w):
        k = max(w)
        return tuple(k + 1 - v for v in w)

    return {frozenset(map(f, (a, b)))
            for f in (lambda w: w, reverse, complement, lambda w: complement(reverse(w)))}


class TestClosure:
    def test_four_member_orbit(self):
        cls = symmetry_closure(("122", "123"))
        assert _pairs(cls) == {("112", "123"), ("122", "123"),
                               ("211", "321"), ("221", "321")}
        assert cls.representative == PatternSet.of("112", "123")

    def test_singleton_orbit(self):
        cls = symmetry_closure(("212", "121"))
        assert _pairs(cls) == {("121", "212")}

    def test_triple_repeat_orbit(self):
        cls = symmetry_closure(("111", "123"))
        assert _pairs(cls) == {("111", "123"), ("111", "321")}

    def test_orbits_match_an_orbit_built_on_letters(self):
        pairs = list(itertools.combinations(PATTERNS_WITH_111, 2))
        assert len(pairs) == 78
        for pair in pairs:
            orbit = _letter_orbit(*(tuple(map(int, text)) for text in pair))
            members = symmetry_closure(pair).members
            assert {frozenset(p.letters for p in s) for s in members} == orbit, pair
            assert len(members) == len(orbit) and list(members) == sorted(members)
            least = min(tuple(sorted(s)) for s in orbit)
            rep = canonical_pair(pair)
            assert type(rep) is PatternSet, pair
            assert tuple(p.letters for p in rep) == least, pair

    def test_closure_size_divides_four(self):
        for cls in classify_all_length3():
            assert 4 % len(cls.members) == 0

    def test_canonical_pair_is_orbit_invariant(self):
        rep = canonical_pair(("122", "123"))
        for member in symmetry_closure(("122", "123")).members:
            assert canonical_pair(member) == rep

    def test_canonical_pair_ignores_the_input_shape(self):
        rep = canonical_pair(("213", "122"))
        assert rep == PatternSet.of("112", "132") and str(rep) == "{112,132}"
        for shape in (["122", "213"], [[2, 1, 3], [1, 2, 2]],
                      PatternSet.of("213", "122"), rep):
            assert type(canonical_pair(shape)) is PatternSet
            assert canonical_pair(shape) == rep
        # letters are reduced, as every pattern reader does: 275 reads as 132
        assert canonical_pair([(2, 7, 5), (1, 2, 3)]) == canonical_pair(("132", "123"))

    def test_canonical_pair_wants_two_distinct_patterns(self):
        # 233 reduces to 122, so the last two are one pattern too
        for pair in (("122",), ("123", "123"), ("122", "233")):
            with pytest.raises(ValueError, match="two distinct patterns"):
                canonical_pair(pair)
            with pytest.raises(ValueError, match="two distinct patterns"):
                symmetry_closure(pair)


class TestClassification:
    def test_pair_and_class_totals(self):
        classes = classify_all_length3()
        assert sum(len(c.members) for c in classes) == 66
        # orbit counting over {id, r, c, rc}: (66 + 6 + 6 + 6) / 4
        assert len(classes) == 21

    def test_deterministic_and_sorted(self):
        first = classify_all_length3()
        second = classify_all_length3()
        assert [c.representative for c in first] == [c.representative for c in second]
        reps = [c.representative for c in first]
        assert reps == sorted(reps)

    def test_paper_mixed_pairs_land_in_distinct_classes(self):
        classes = classify_all_length3()
        owners = []
        for pair in PAPER_MIXED_PAIRS:
            matches = [c for c in classes if pair_in(c, pair)]
            assert len(matches) == 1
            owners.append(matches[0].representative)
        assert len(set(owners)) == len(PAPER_MIXED_PAIRS)

    def test_mixed_orbits_all_have_size_four(self):
        for cls in classify_all_length3():
            kinds = {p.is_ordinary for pair in cls.members for p in pair}
            if kinds == {True, False}:  # one ordinary, one multiset pattern
                assert len(cls.members) == 4

    def test_the_uncovered_class_exists(self):
        # the ninth mixed class: (212,213) and its images
        cls = symmetry_closure(("212", "213"))
        assert _pairs(cls) == {("121", "132"), ("121", "231"),
                               ("212", "213"), ("212", "312")}


def pair_in(cls, pair):
    return PatternSet.of(*pair) in cls.members


class TestCounts:
    def test_within_class_equality_small(self):
        for cls in classify_all_length3():
            vectors = {count_vector(member, 2, 3) for member in cls.members}
            assert len(vectors) == 1, f"class {cls} not count-invariant"

    def test_empirical_grouping_collects_known_equivalences(self):
        groups = empirical_wilf_classes(4, 2)
        by_rep = {}
        for group in groups:
            for cls in group:
                by_rep[cls.representative] = group
        # the two generalized-Catalan families group together
        a = canonical_pair(("122", "123"))
        b = canonical_pair(("122", "132"))
        assert by_rep[a] is by_rep[b]
        # at m = 2 the two Fibonacci-like families coincide...
        c = canonical_pair(("211", "213"))
        d = canonical_pair(("122", "213"))
        assert by_rep[c] is by_rep[d]
        # ... and separate once m = 3 joins the grid
        groups3 = empirical_wilf_classes(3, 3)
        by_rep3 = {}
        for group in groups3:
            for cls in group:
                by_rep3[cls.representative] = group
        assert by_rep3[c] is not by_rep3[d]
        assert by_rep3[a] is by_rep3[b]

    def test_jointly_unavoidable_class_groups_alone(self):
        groups = empirical_wilf_classes(3, 3)
        rep = canonical_pair(("122", "211"))
        group = next(g for g in groups if any(c.representative == rep for c in g))
        assert len(group) == 1

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            empirical_wilf_classes(10, 4)

    def test_empty_grid_is_refused(self):
        for n_max, m_max in ((0, 3), (4, 1), (4, 0), (0, 0)):
            with pytest.raises(Unsupported, match="has no cell"):
                empirical_wilf_classes(n_max, m_max)

    def test_count_vector_matches_direct_counts(self):
        vec = count_vector(("112", "122"), 3, 3)
        expected = [count_avoiders(n, m, PatternSet.of("112", "122"))
                    for n in (1, 2, 3) for m in (2, 3)]
        assert list(vec) == expected
