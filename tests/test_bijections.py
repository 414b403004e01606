import itertools

import pytest
from hypothesis import given, strategies as st

from msetperm import bijections
from msetperm.bijections import (
    PAIR_112_122,
    PAIR_122_123,
    PAIR_122_132,
    DyckWord,
    LabelSequence,
    LatticePath,
    dyck_to_perm,
    enumerate_dyck_words,
    enumerate_paths,
    labels_to_path,
    labels_to_perm,
    path_to_labels,
    perm_to_dyck,
    perm_to_labels,
    simion_schmidt_f,
    simion_schmidt_g,
)
from msetperm.core import MultisetPermutation, contains, first_ascent, left_to_right_minima
from msetperm.enumeration import list_avoiders
from msetperm.errors import (
    InvalidDyck,
    InvalidLabelSequence,
    InvalidPath,
    NotInDomain,
)
from msetperm.formulas import catalan, generalized_catalan, rothe

P = MultisetPermutation.parse


class TestDyck:
    def test_worked_example(self):
        assert str(dyck_to_perm(DyckWord("XYXXYXYY"))) == "44323121"
        assert str(perm_to_dyck(P("44323121"))) == "XYXXYXYY"

    def test_small_words(self):
        assert str(dyck_to_perm(DyckWord("XXYY"))) == "2121"
        assert str(dyck_to_perm(DyckWord("XYXY"))) == "2211"
        assert str(perm_to_dyck(P("11"))) == "XY"

    def test_invalid_words_rejected(self):
        with pytest.raises(InvalidDyck):
            DyckWord("XYY")
        with pytest.raises(InvalidDyck):
            DyckWord("YX")
        with pytest.raises(InvalidDyck):
            DyckWord("XZ")
        with pytest.raises(InvalidDyck):
            DyckWord("XXY")  # unequal numbers of X and Y

    def test_domain_checked(self):
        with pytest.raises(NotInDomain):
            perm_to_dyck(P("1122"))  # contains 112
        with pytest.raises(NotInDomain):
            perm_to_dyck(P("111222"))  # m = 3

    def test_round_trip_and_image_exhaustive(self):
        for n in range(0, 7):
            words = list(enumerate_dyck_words(n))
            assert len(words) == catalan(n)
            avoiders = {s.letters for s in list_avoiders(n, 2, PAIR_112_122)}
            image = set()
            for w in words:
                sigma = dyck_to_perm(w)
                assert not contains(sigma, PAIR_112_122)
                assert str(perm_to_dyck(sigma)) == str(w)
                image.add(sigma.letters)
            assert image == avoiders


class TestLabels:
    def test_worked_example(self):
        sigma = P("443322421311")
        seq = perm_to_labels(sigma)
        assert seq.values == (1, 4, 7, 7, 7) and seq.m == 3
        assert labels_to_perm(seq) == sigma

    def test_single_letter(self):
        for m in (1, 2, 3):
            sigma = MultisetPermutation.regular([1] * m, 1, m)
            assert perm_to_labels(sigma).values == (1, m + 1)
            assert labels_to_perm(LabelSequence((1, m + 1), m)) == sigma

    def test_weakly_decreasing_case(self):
        assert perm_to_labels(P("2211")).values == (1, 3, 5)
        assert str(labels_to_perm(LabelSequence((1, 3, 5), 2))) == "2211"

    def test_bounds_validated(self):
        with pytest.raises(InvalidLabelSequence):
            LabelSequence((2, 3), 2)  # must start at 1
        with pytest.raises(InvalidLabelSequence):
            LabelSequence((1, 4), 2)  # second label must be m+1
        with pytest.raises(InvalidLabelSequence):
            LabelSequence((1, 3, 6), 2)  # exceeds previous + m
        with pytest.raises(InvalidLabelSequence):
            LabelSequence((1, 3, 2), 2)  # below m+1

    def test_domain_checked(self):
        with pytest.raises(NotInDomain):
            perm_to_labels(P("1122"))  # contains both 122 and 123... 122 first
        with pytest.raises(NotInDomain):
            perm_to_labels(P("11223"))  # not a regular multiset

    def test_round_trip_exhaustive(self):
        for n, m in ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2),
                     (1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4),
                     (2, 5), (2, 6), (1, 12)):
            avoiders = list_avoiders(n, m, PAIR_122_123)
            assert len(avoiders) == generalized_catalan(n, m)
            seen = set()
            for sigma in avoiders:
                seq = perm_to_labels(sigma)
                seen.add(seq.values)
                back = labels_to_perm(seq)
                assert back == sigma
                assert not contains(back, PAIR_122_123)
            assert len(seen) == len(avoiders)


def _labels_by_definition(sigma: MultisetPermutation) -> tuple[int, ...]:
    """The first ascent of the restriction of sigma to [k], for k = 0..n.
    The restrictions are made for k descending, each from the next larger
    one by removing the copies of k + 1 in place."""
    restriction = list(sigma.letters)
    labels = []
    for k in range(sigma.alphabet_size, -1, -1):
        labels.append(first_ascent(restriction))
        for _ in range(restriction.count(k)):
            restriction.remove(k)
    return tuple(labels[::-1])


class TestLabelsInOnePass:
    def test_every_avoider_up_to_length_12(self):
        for m in range(1, 13):
            for n in range(12 // m + 1):
                for sigma in list_avoiders(n, m, PAIR_122_123):
                    assert perm_to_labels(sigma).values == _labels_by_definition(sigma)

    @given(st.integers(1, 4), st.lists(st.integers(0, 10**6), max_size=80))
    def test_random_label_sequences(self, m, choices):
        # each choice picks the next label in its range [m+1, previous + m]
        values = [1]
        for c in choices:
            values.append(m + 1 + c % values[-1])
        sigma = labels_to_perm(LabelSequence(tuple(values), m))
        assert perm_to_labels(sigma).values == _labels_by_definition(sigma) == tuple(values)


class TestPaths:
    def test_figure_path(self):
        path = LatticePath("UU" + "RRR" + "U" + "RRR" + "U" + "RRRRRRR", 3)
        assert path_to_labels(path).values == (1, 4, 7, 7, 7)

    def test_unique_small_path(self):
        seq = LabelSequence((1, 3), 2)
        assert str(labels_to_path(seq)) == "URRR"
        assert path_to_labels(LatticePath("URRR", 2)).values == (1, 3)

    def test_path_validation(self):
        with pytest.raises(InvalidPath):
            LatticePath("RU", 1)  # touches x = y*1 + 1 at (1,0) before the end
        with pytest.raises(InvalidPath):
            LatticePath("UURR", 1)  # wrong endpoint
        with pytest.raises(InvalidPath):
            LatticePath("UXRR", 1)
        with pytest.raises(InvalidPath):
            LatticePath("RUR", 1)  # right length, but touches the boundary at (1,0)

    def test_validation_and_labels_agree_with_the_step_by_step_walk(self):
        # the runs of right-steps between up-steps against one Python step
        # per character: the same acceptance and message on every {U, R}
        # word of length <= 13, and the same labels on every path
        def walk(steps, m):
            ups, rights = steps.count("U"), steps.count("R")
            if rights != 1 + m * ups:
                return f"{ups} up-steps need exactly {1 + m * ups} right-steps", None
            x = y = 0
            labels = [1]
            for k, ch in enumerate(steps):
                if ch == "U":
                    y += 1
                    labels.append(m * y - x + 1)
                else:
                    x += 1
                if x == m * y + 1 and k != len(steps) - 1:
                    return f"path touches the boundary line at ({x},{y}) before the end", None
            return None, tuple(labels)

        paths = 0
        for m in (1, 2, 3):
            for length in range(14):
                for word in itertools.product("UR", repeat=length):
                    steps = "".join(word)
                    message, labels = walk(steps, m)
                    try:
                        path = LatticePath(steps, m)
                    except InvalidPath as exc:
                        assert str(exc) == message, (steps, m)
                        continue
                    assert message is None, (steps, m)
                    assert path_to_labels(path).values == labels, (steps, m)
                    paths += 1
        # the paths of every n whose length 1 + (m + 1) * n is at most 13
        assert paths == sum(generalized_catalan(n, m) for m in (1, 2, 3)
                            for n in range(13) if 1 + (m + 1) * n <= 13)

    def test_round_trip_exhaustive(self):
        for m in (1, 2, 3):
            for n in range(0, 6):
                paths = list(enumerate_paths(n, m))
                assert len(paths) == rothe(1, m + 1, n) == generalized_catalan(n, m)
                for p in paths:
                    seq = path_to_labels(p)
                    assert str(labels_to_path(seq)) == str(p)

    def test_paths_come_in_lexicographic_order_up_before_right(self):
        for m in (1, 2, 3):
            for n in range(0, 5):
                steps = [str(p) for p in enumerate_paths(n, m)]
                keys = [s.replace("U", "0").replace("R", "1") for s in steps]
                assert keys == sorted(set(keys))
        assert [str(p) for p in enumerate_paths(2, 1)] == ["UURRR", "URURR"]

    def test_path_to_perm_composition(self):
        # full composition: paths -> label sequences -> permutations is a
        # bijection onto the avoiders
        n, m = 3, 2
        perms = {labels_to_perm(path_to_labels(p)).letters
                 for p in enumerate_paths(n, m)}
        assert perms == {s.letters for s in list_avoiders(n, m, PAIR_122_123)}


class TestMinimaMap:
    def test_worked_example(self):
        assert str(simion_schmidt_f(P("43421231"))) == "43421321"
        assert str(simion_schmidt_g(P("43421321"))) == "43421231"

    def test_fixed_point(self):
        assert str(simion_schmidt_f(P("2211"))) == "2211"

    def test_an_image_on_another_multiset_is_refused(self, monkeypatch):
        # free slots 3, 3, 2 refill 2211 as 2111: it avoids 122 and 123, and
        # the constructor takes it, but it is not a permutation of 2211's
        # letters
        monkeypatch.setattr(bijections, "_free_slots", lambda sigma: [3, 3, 2])
        assert MultisetPermutation((2, 1, 1, 1)).letters == (2, 1, 1, 1)
        with pytest.raises(AssertionError, match="2111 is not a permutation of the letters of 2211"):
            simion_schmidt_f(P("2211"))

    def test_domain_checked(self):
        with pytest.raises(NotInDomain):
            simion_schmidt_f(P("1322"))  # contains 122
        with pytest.raises(NotInDomain):
            simion_schmidt_g(P("112233"))  # contains 123

    def test_round_trip_minima_and_images_exhaustive(self):
        for n, m in ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2),
                     (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5), (2, 6)):
            sources = list_avoiders(n, m, PAIR_122_132)
            targets = {s.letters for s in list_avoiders(n, m, PAIR_122_123)}
            image = set()
            for sigma in sources:
                tau = simion_schmidt_f(sigma)
                assert not contains(tau, PAIR_122_123)
                assert left_to_right_minima(tau) == left_to_right_minima(sigma)
                mins = left_to_right_minima(sigma)
                assert [tau.letters[i - 1] for i in mins] == \
                    [sigma.letters[i - 1] for i in mins]
                assert simion_schmidt_g(tau) == sigma
                image.add(tau.letters)
            assert image == targets

    def test_forced_minima_block_structure(self):
        # in any 122-avoider, the first m-1 copies of n, n-1, ..., 1 appear
        # in exactly that order and every one of them is a minimum
        from msetperm.core import PatternSet
        for n, m in ((3, 2), (2, 3), (4, 2), (2, 4), (3, 3)):
            expected = [v for v in range(n, 0, -1) for _ in range(m - 1)]
            for sigma in list_avoiders(n, m, PatternSet.of("122")):
                minima = set(left_to_right_minima(sigma))
                seen = {v: 0 for v in range(1, n + 1)}
                early = []
                for pos, v in enumerate(sigma.letters, start=1):
                    seen[v] += 1
                    if seen[v] <= m - 1:
                        early.append(v)
                        assert pos in minima
                assert early == expected


@pytest.mark.parametrize("convert, text, message", [
    (perm_to_dyck, "1122", "1122 contains 112 at positions 1,2,3"),
    (perm_to_labels, "112233", "112233 contains 122 at positions 1,3,4"),
    (simion_schmidt_f, "132231", "132231 contains 122 at positions 1,2,5"),
    (simion_schmidt_g, "213312", "213312 contains 122 at positions 1,3,4"),
    # inputs that hold only the second pattern of their set
    (perm_to_dyck, "1221", "1221 contains 122 at positions 1,2,3"),
    (perm_to_labels, "321123", "321123 contains 123 at positions 3,5,6"),
    (simion_schmidt_f, "2132", "2132 contains 132 at positions 2,3,4"),
    (simion_schmidt_g, "123", "123 contains 123 at positions 1,2,3"),
])
def test_domain_messages_name_the_first_occurrence(convert, text, message):
    with pytest.raises(NotInDomain) as excinfo:
        convert(P(text))
    assert str(excinfo.value) == message
