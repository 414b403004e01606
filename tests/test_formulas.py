import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from msetperm.classify import canonical_pair, symmetry_closure
from msetperm.core import LENGTH3_PATTERNS, TRIPLE_REPEAT, PatternSet
from msetperm.enumeration import count_avoiders
from msetperm.errors import OutOfDomain, Unsupported
from msetperm.formulas import (
    RECURRENCE_FAMILIES,
    REGISTRY,
    _quadratic_power,
    catalan,
    catalog,
    closed_count,
    explicit_count,
    generalized_catalan,
    proved_count,
    recurrence_count,
    recurrence_terms,
    rothe,
    stirling_count,
)

from reference import naive_count


class TestBasicSequences:
    def test_catalan_small(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_generalized_catalan_reduces_to_catalan(self):
        for n in range(12):
            assert generalized_catalan(n, 1) == catalan(n)

    def test_generalized_catalan_values(self):
        assert generalized_catalan(0, 5) == 1
        assert generalized_catalan(3, 2) == 12
        assert generalized_catalan(4, 3) == 140

    def test_rothe_specializations(self):
        for n in range(10):
            assert rothe(1, 2, n) == catalan(n)
            for m in range(1, 6):
                assert rothe(1, m + 1, n) == generalized_catalan(n, m)
        assert rothe(7, 3, 0) == 1

    def test_stirling_values(self):
        assert stirling_count(1, 7) == 1
        assert stirling_count(2, 2) == 3
        assert stirling_count(3, 2) == 15
        assert stirling_count(4, 3) == 280


class TestRecurrences:
    def test_initial_values(self):
        for m in range(2, 7):
            for pair in (("211", "213"), ("122", "213")):
                assert recurrence_count(pair, 1, m) == 1
                assert recurrence_count(pair, 2, m) == m + 1

    def test_spot_values(self):
        assert recurrence_count(("211", "213"), 2, 4) == 5
        assert recurrence_count(("211", "213"), 3, 2) == 7
        assert recurrence_count(("122", "213"), 3, 3) == 13

    def test_m2_coincidence(self):
        for n in range(1, 40):
            assert recurrence_count(("211", "213"), n, 2) == \
                recurrence_count(("122", "213"), n, 2)

    def test_accepts_symmetry_images(self):
        # (122,231) is the complement image of (211,213)
        assert recurrence_count(("122", "231"), 3, 2) == 7

    @pytest.mark.parametrize("as_strings", [True, False], ids=["strings", "PatternSet"])
    @pytest.mark.parametrize("member, rep", [
        (member, rep) for rep in RECURRENCE_FAMILIES
        for member in symmetry_closure(rep).members], ids=str)
    def test_every_orbit_member_is_served_as_its_family(self, member, rep, as_strings):
        # at m >= 3 the families' coefficients differ (2 against m), so a
        # member served as the other family reads a different count
        pair = tuple(str(p) for p in member) if as_strings else member
        for m in range(2, 7):
            assert list(recurrence_terms(pair, 8, m)) == list(recurrence_terms(rep, 8, m))
            for n in range(1, 9):
                expected = recurrence_count(rep, n, m)
                assert recurrence_count(pair, n, m) == expected, (n, m)
                assert explicit_count(pair, n, m) == expected, (n, m)
                assert closed_count(pair, n, m) == expected, (n, m)
                assert proved_count(pair, n, m) == expected, (n, m)
        other = next(r for r in RECURRENCE_FAMILIES if r != rep)
        assert recurrence_count(pair, 3, 3) != recurrence_count(other, 3, 3)

    def test_rejects_other_pairs(self):
        for count in (recurrence_count, explicit_count):
            with pytest.raises(Unsupported):
                count(("122", "123"), 3, 2)

    def test_domain(self):
        for count in (recurrence_count, explicit_count):
            with pytest.raises(OutOfDomain):
                count(("211", "213"), 0, 2)
            with pytest.raises(OutOfDomain):
                count(("211", "213"), 3, 1)


class TestExplicitForms:
    def test_small_values(self):
        for m in range(2, 7):
            assert explicit_count(("211", "213"), 1, m) == 1
            assert explicit_count(("211", "213"), 2, m) == m + 1
            assert explicit_count(("122", "213"), 2, m) == m + 1
        assert explicit_count(("122", "213"), 3, 2) == 7

    def test_matches_recurrence_everywhere(self):
        for pair in (("211", "213"), ("122", "213")):
            for m in (2, 3, 6):
                for n in range(1, 120):
                    assert explicit_count(pair, n, m) == recurrence_count(pair, n, m)

    @given(st.sampled_from([("211", "213"), ("122", "213")]),
           st.integers(1, 1000), st.integers(2, 50))
    def test_matches_recurrence_property(self, pair, n, m):
        assert explicit_count(pair, n, m) == recurrence_count(pair, n, m)

    def test_power_matches_repeated_multiplication(self):
        a, b, d = 2, -1, 5
        x, y = 1, 0
        for k in range(8):
            assert _quadratic_power(a, b, d, k) == (x, y)
            x, y = x * a + y * b * d, x * b + y * a


class TestClosedCount:
    def test_spot_values(self):
        assert closed_count(("122", "312"), 3, 2) == 5
        assert closed_count(("112", "122"), 4, 3) == 8
        assert closed_count(("122", "321"), 2, 5) == 6
        assert closed_count(("123", "321"), 5, 2) == 0

    def test_dispatch_is_symmetry_blind(self):
        # (211,221) is the reverse image of (112,122)
        assert closed_count(("211", "221"), 4, 3) == closed_count(("112", "122"), 4, 3)

    def test_n0_is_always_one(self):
        for pair in (("112", "122"), ("123", "132"), ("122", "211"), ("111", "123")):
            assert closed_count(pair, 0, 3) == 1

    def test_recursion_only_pairs_unsupported(self):
        with pytest.raises(Unsupported):
            closed_count(("123", "132"), 3, 2)
        with pytest.raises(Unsupported):
            closed_count(("132", "213"), 3, 2)

    def test_uncovered_class_unsupported(self):
        with pytest.raises(Unsupported):
            closed_count(("212", "213"), 3, 2)

    def test_out_of_domain_reported(self):
        with pytest.raises(OutOfDomain):
            closed_count(("132", "231"), 1, 2)

    def test_catalog_records_every_entry(self):
        rows = catalog()
        assert len(rows) == len(REGISTRY)
        trusts = {r["trust"] for r in rows}
        assert trusts == {"proved-here", "imported", "report-only"}
        servable = [r for r in rows if r["servable"]]
        assert len(servable) == len(rows) - 3  # two recursion-only + one uncovered
        validity = {tuple(r["table_pair"]): r["validity"] for r in rows}
        for pair in (("123", "132"), ("132", "213"), ("212", "213")):
            assert validity.pop(pair) == "-"
        assert validity.pop(("132", "231")) == "n >= 2, m >= 2"
        assert set(validity.values()) == {"n >= 1, m >= 2"}

    def test_proved_rows_match_oracle_small(self):
        proved = [e for e in REGISTRY.values() if e.trust == "proved-here"]
        assert len(proved) == 7
        for entry in proved:
            for n, m in ((1, 2), (2, 2), (3, 2), (2, 3)):
                assert closed_count(entry.pair, n, m) == \
                    count_avoiders(n, m, PatternSet(entry.pair))


class TestProvedCount:
    """proved_count is the trust gate: it never answers a count that the
    oracle does not give."""

    PAIRS = (list(itertools.combinations(LENGTH3_PATTERNS, 2))
             + [(TRIPLE_REPEAT, p) for p in LENGTH3_PATTERNS])
    # patterns of other lengths, which the m = 1 catalog does not cover
    OTHER_PAIRS = [("112", "12"), ("121", "1"), ("11", "1234")]
    # pairs of PAIRS in the other shapes canonical_pair accepts: a list, and
    # tuples and lists of lists (the Pattern tuples in PAIRS include every
    # registry key)
    OTHER_SHAPES = [["122", "213"], ([1, 2, 2], [1, 2, 3]), [[2, 1, 2], [1, 3, 2]]]
    CELLS = [(n, m) for m in range(1, 5) for n in range(0, 8 // m + 1)]

    def test_serves_only_what_the_oracle_confirms(self):
        assert len(self.PAIRS) == 78
        served = refused = 0
        for pair in self.PAIRS + self.OTHER_PAIRS + self.OTHER_SHAPES:
            entry = REGISTRY.get(canonical_pair(pair))
            proved = entry is not None and entry.trust == "proved-here"
            catalogued_m1 = pair not in self.OTHER_PAIRS
            for n, m in self.CELLS:
                try:
                    value = proved_count(pair, n, m)
                except (Unsupported, OutOfDomain):
                    refused += 1
                    # the cells the policy promises to serve are served
                    assert not (n == 0 or (m == 1 and catalogued_m1) or
                                (proved and entry.validity(n, m))), (pair, n, m)
                    continue
                served += 1
                assert value == count_avoiders(n, m, PatternSet.of(*pair)), (pair, n, m)
        assert served and refused

    def test_unproved_rows_are_refused_naming_their_trust(self):
        for pair, n, m in ((("212", "132"), 4, 2), (("111", "123"), 3, 2),
                           (("132", "231"), 2, 2), (("212", "123"), 3, 2)):
            trust = REGISTRY[canonical_pair(pair)].trust
            assert trust != "proved-here"
            with pytest.raises(Unsupported, match=trust) as exc:
                proved_count(pair, n, m)
            assert "msetperm table" in str(exc.value)
            assert "--method oracle" in str(exc.value)
            closed_count(pair, n, m)  # the quoted evaluator still serves it

    def test_domain_and_servability_come_before_trust(self):
        with pytest.raises(OutOfDomain):
            proved_count(("132", "231"), 1, 2)
        with pytest.raises(OutOfDomain):
            proved_count(("112", "122"), -1, 2)
        with pytest.raises(Unsupported, match="use the enumeration oracle"):
            proved_count(("123", "132"), 3, 2)


class TestOrdinaryPermutations:
    """m = 1 redirects to the classical catalog; verified against the
    reference filter."""

    def test_multiset_patterns_drop_out(self):
        for n in range(0, 6):
            assert closed_count(("112", "122"), n, 1) == math.factorial(n)
            assert closed_count(("122", "123"), n, 1) == catalan(n)
            assert closed_count(("111", "122"), n, 1) == math.factorial(n)
            assert closed_count(("111", "123"), n, 1) == catalan(n)
            assert closed_count(("11", "132"), n, 1) == catalan(n)

    @pytest.mark.parametrize("pair,expected", [
        (("123", "132"), [1, 2, 4, 8, 16]),
        (("123", "213"), [1, 2, 4, 8, 16]),
        (("132", "213"), [1, 2, 4, 8, 16]),
        (("132", "231"), [1, 2, 4, 8, 16]),
        (("132", "312"), [1, 2, 4, 8, 16]),
        (("231", "321"), [1, 2, 4, 8, 16]),
        (("123", "231"), [1, 2, 4, 7, 11]),
        (("123", "312"), [1, 2, 4, 7, 11]),
        (("123", "321"), [1, 2, 4, 4, 0]),
    ])
    def test_classical_pair_values(self, pair, expected):
        assert [closed_count(pair, n, 1) for n in range(1, 6)] == expected

    def test_matches_reference_filter(self):
        import itertools
        for a, b in itertools.combinations(("123", "132", "213", "231", "312", "321"), 2):
            pats = [tuple(int(ch) for ch in a), tuple(int(ch) for ch in b)]
            for n in range(1, 6):
                assert closed_count((a, b), n, 1) == naive_count(n, 1, pats), (a, b, n)


class TestImportedRows:
    """Quoted rows that do hold on the small grid (the disagreeing ones are
    exercised through the agreement report instead)."""

    @pytest.mark.parametrize("pair,n,m,expected", [
        (("212", "221"), 4, 2, 1),
        (("212", "121"), 4, 2, 24),
        (("122", "121"), 4, 3, 14),
        (("122", "211"), 3, 2, 0),
        (("122", "221"), 3, 2, 1),
        (("122", "221"), 3, 3, 0),
        (("212", "123"), 3, 2, 10),
        (("212", "123"), 4, 2, 37),
        (("123", "231"), 3, 2, 19),
        (("123", "321"), 3, 3, 80),
        (("123", "321"), 2, 5, 252),
        (("132", "312"), 3, 3, 148),
    ])
    def test_quoted_values(self, pair, n, m, expected):
        assert closed_count(pair, n, m) == expected

    def test_oracle_agreement_on_verified_cells(self):
        for pair in (("212", "221"), ("212", "121"), ("122", "121"),
                     ("212", "123"), ("123", "231"), ("132", "312")):
            ps = PatternSet.of(*pair)
            for n, m in ((2, 2), (3, 2), (2, 3)):
                assert closed_count(pair, n, m) == count_avoiders(n, m, ps), (pair, n, m)


def test_series_sum_is_integral_up_to_large_n():
    for m in (2, 3, 5):
        for n in range(1, 40):
            closed_count(("212", "123"), n, m)  # raises ArithmeticBug if not integral


def test_series_sum_equals_the_fraction_sum():
    # the row sums in integers over the common denominator lcm(1, ..., n+1)
    for m in range(2, 8):
        for n in range(1, 80):
            series = sum(Fraction(math.comb(n, j) * math.comb(n + (m - 1) * j - 1, n - j),
                                  n + 1 - j) for j in range(n + 1))
            assert closed_count(("212", "123"), n, m) == series, (n, m)


def test_specialization_chain():
    # the generalized-Catalan family is served consistently by three routes
    for m in range(1, 7):
        for n in range(0, 101):
            value = generalized_catalan(n, m)
            assert rothe(1, m + 1, n) == value
            if n >= 1 and m >= 2:
                assert closed_count(("122", "123"), n, m) == value
