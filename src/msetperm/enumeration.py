"""Brute-force oracle: generate, count and list the pattern-avoiding
permutations of a multiset, and count pattern-avoiding words.

Counting, listing and word counting run one level-by-level transfer
(Brändén and Mansour, "Finite automata and pattern avoidance in words", J.
Combin. Theory Ser. A, 2005) over a side's states, from its root, by its
expand(state): the (letter, child) steps of the state's allowed letters,
in increasing order.  A level maps each state to the number of words that
reach it.  walk counts the permutations of the multiset with
multiplicities mu, summing the last level; _list lists them, keeping each
level's states and steps and building every state's completions backward,
deepest level first: its allowed letters in order, each followed by every
completion of its child.  Both start from _permutations, which alone
builds the (0, *mu) state layout.  Word counting sums every level and
expands through functools.cache, so a word state reached at many lengths
is expanded once.  The state does not canonicalize under symmetry, but
count_avoiders counts the cheaper of the set and its reverse, which have
equally many avoiders on every multiset (_cheaper); walk, listing and word
counting read the set as given.

For the canonical patterns of length 2 and 3 a letter is decided by O(1)
terms over the letters seen (core's _BLOCKS, which containment reads too).
The pattern 1 and anything of length 4 or more has none, so the word
travels in the state (_carry_word), and every path takes the smaller
PLAIN_LENGTH_BUDGET.  Counts are plain Python ints, hence arbitrary
precision.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Sequence

from .core import (MultisetPermutation, Pattern, PatternSet, Term, _advance,
                   _occurrence_general, _set_terms, as_pattern_set, format_letters)
from .errors import BudgetExceeded

#: Largest permutation length materialized (generate/list).
LIST_LENGTH_BUDGET = 14
#: Largest permutation or word length counted with pruning.
COUNT_LENGTH_BUDGET = 18
#: Largest length counted or listed when some pattern has length 4 or more:
#: that pattern is then tested on every prefix or word.
PLAIN_LENGTH_BUDGET = 8
#: Most words of the longest length, n ** max_length, counted when some
#: pattern has length 4 or more: each clean word is then its own state.
PLAIN_WORD_BUDGET = 4 ** 8


def _check_budget(length: int, budget: int, patterns: PatternSet) -> None:
    """BudgetExceeded when length passes budget, or passes PLAIN_LENGTH_BUDGET
    and one of the patterns has length 4 or more."""
    if length > PLAIN_LENGTH_BUDGET and any(len(p.letters) > 3 for p in patterns):
        budget = PLAIN_LENGTH_BUDGET
    if length > budget:
        raise BudgetExceeded(f"length {length} exceeds the budget of {budget}")


def _split(patterns: PatternSet) -> tuple[tuple[Term, ...], list[Pattern]]:
    """The patterns' _BLOCKS terms, and the patterns that have none."""
    blocks = _set_terms(patterns)
    return (tuple([term for term in blocks if term is not None]),
            [p for p, term in zip(patterns, blocks) if term is None])


def _carry_word(root: tuple, expand: Callable[[tuple], list],
                slow: list[Pattern]) -> tuple[tuple, Callable[[tuple], list]]:
    """The root and expand of a transfer whose state is (state, word) when
    some pattern has no _BLOCKS term: a step is allowed when expand allows
    it and the word plus its letter avoids every such pattern.  The word
    avoids them, so only an occurrence that ends at the letter can be new:
    with the letter moved to the front, and each pattern's last letter too,
    it is an occurrence anchored at position 0."""
    if not slow:
        return root, expand
    rotated = [p.letters[-1:] + p.letters[:-1] for p in slow]

    def expand_word(state: tuple) -> list[tuple[int, tuple]]:
        inner, word = state
        return [(c, (child, word + (c,))) for c, child in expand(inner)
                if all(_occurrence_general((c,) + word, pat, True) is None for pat in rotated)]

    return (root, ()), expand_word


def _transfer(root: tuple, expand: Callable[[tuple], list], depth: int) -> Iterator[dict]:
    """Levels 0 to depth, each a dict from a state to the number of words
    of that length that reach it."""
    level = {root: 1}
    yield level
    for _ in range(depth):
        following: dict = {}
        get = following.get
        for state, ways in level.items():
            for _, child in expand(state):
                following[child] = get(child, 0) + ways
        level = following
        yield level


def _permutations(mu: Sequence[int], patterns: PatternSet
                  ) -> tuple[tuple, Callable[[tuple], list], int]:
    """The root and expand of the transfer over the permutations of
    {1^mu(1), ..., n^mu(n)} that avoid the patterns, and the depth a count
    runs it to.

    A prefix's state is one flat tuple (0, *remaining, present, left), built
    here only: letter c's remaining copies at index c, and the masks of the
    letters seen and of those with copies left.  Every letter must be
    placed, so a letter is allowed only when its _BLOCKS terms block none of
    the letters left after it: the prefix plus a blocked letter is a
    subsequence of every completion.  The terms read only the letter and the
    letters seen, so the state decides them.  A count stops one level short
    when every pattern has a term, since a live state with one letter left
    has one completion.
    """
    terms, slow = _split(patterns)
    letters = range(1, len(mu) + 1)

    def expand(state: tuple) -> list[tuple[int, tuple]]:
        present, left = state[-2], state[-1]
        steps = []
        work = list(state)
        for c in letters:
            copies = state[c]
            if copies:
                bit = 1 << c
                after = left ^ bit if copies == 1 else left
                lower, upper, again = present & (bit - 1), present & -(bit << 1), present & bit
                for term in terms:
                    if term(bit, lower, upper, again) & after:
                        break
                else:
                    work[c], work[-2], work[-1] = copies - 1, present | bit, after
                    steps.append((c, tuple(work)))
                    work[c] = copies
        return steps

    left = sum(1 << c for c, copies in enumerate(mu, 1) if copies)
    root, expand = _carry_word((0, *mu, 0, left), expand, slow)
    depth = sum(mu)
    return root, expand, depth if slow else depth - 1


def walk(mu: Sequence[int], patterns: PatternSet) -> int:
    """How many permutations of {1^mu(1), ..., n^mu(n)} avoid the patterns,
    read as given: the state does not canonicalize under symmetry."""
    root, expand, depth = _permutations(mu, patterns)
    for level in _transfer(root, expand, depth):
        pass
    return sum(level.values())


#: The multiset [4]_2, on which _cheaper compares the two directions.
_PROBE_MU = (2, 2, 2, 2)


@functools.lru_cache(maxsize=256)
def _cheaper(patterns: PatternSet) -> PatternSet:
    """The patterns or their reverse, whichever a count's transfer visits
    fewer states of on _PROBE_MU; the patterns as given on a tie.
    Reversal maps the avoiders of P on every multiset one to one onto those
    of r(P), so both count alike, but the transfer reads left to right and
    its look-ahead prunes well in one direction only: {123,132} on [6]_2
    visits 728 states, its reverse 72.  Keyed on the set's value, so an
    equal set built afresh for each call is probed once.  A set with a
    pattern that has no _BLOCKS term is kept as given: the probe's length is
    its whole PLAIN_LENGTH_BUDGET, so probing it costs tens of milliseconds,
    more than the counts it could speed up."""
    if None in _set_terms(patterns):
        return patterns

    def states(side: PatternSet) -> int:
        root, expand, depth = _permutations(_PROBE_MU, side)
        return sum(len(level) for level in _transfer(root, expand, depth))

    return min((patterns, patterns.reverse()), key=states)


def _list(mu: tuple[int, ...], patterns: PatternSet) -> list[MultisetPermutation]:
    """The permutations of {1^mu(1), ..., n^mu(n)} that avoid the patterns,
    in lexicographic order: the package's one listing path.  Each is checked
    by one sort and compare with the sorted letters of mu, built once, and
    an AssertionError names one that fails."""
    _check_budget(sum(mu), LIST_LENGTH_BUDGET, patterns)
    root, expand, _ = _permutations(mu, patterns)
    recorded = {}

    def record(state: tuple) -> list[tuple[int, tuple]]:
        recorded[state] = steps = expand(state)
        return steps

    levels = [list(level) for level in _transfer(root, record, sum(mu))]
    completions = dict.fromkeys(levels.pop(), [()])
    while levels:
        states = levels.pop()
        # a lone state is the only parent of the next level's states, so
        # each child's completions are dropped once read
        take = completions.pop if len(states) == 1 else completions.__getitem__
        completions = {state: [(c,) + tail for c, child in recorded.pop(state)
                               for tail in take(child)] for state in states}
    expected = [c for c, copies in enumerate(mu, 1) for _ in range(copies)]
    listing = completions[root]
    for word in listing:
        if sorted(word) != expected:
            raise AssertionError(f"listed {format_letters(word)}, not a permutation "
                                 f"of the multiset with multiplicities {mu}")
    return list(map(MultisetPermutation._known, listing))


# -- public surface ------------------------------------------------------------

def generate_all(n: int, mu: Sequence[int]) -> Iterator[MultisetPermutation]:
    """Every permutation of {1^mu(1), ..., n^mu(n)} in lexicographic order:
    _list with no patterns, built in full before it is returned."""
    mu = tuple(mu)
    if n < 0 or len(mu) != n or any(m < 1 for m in mu):
        raise ValueError("need n >= 0 and a positive multiplicity for each letter")
    return iter(_list(mu, PatternSet(())))


def count_avoiders(n: int, m: int, patterns: PatternSet | Sequence) -> int:
    """|{sigma on [n]_m : sigma avoids every pattern}| by pruned search,
    over the patterns or their reverse, whichever _cheaper picks."""
    patterns = as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    if len(patterns) == 0:
        # No restriction: the multinomial counts everything.
        return math.factorial(n * m) // math.factorial(m) ** n
    _check_budget(n * m, COUNT_LENGTH_BUDGET, patterns)
    return walk((m,) * n, _cheaper(patterns))


def list_avoiders(n: int, m: int, patterns: PatternSet | Sequence
                  ) -> list[MultisetPermutation]:
    """The avoiders themselves, in lexicographic order."""
    patterns = as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    return _list((m,) * n, patterns)


def word_counts_by_length(n: int, max_length: int,
                          patterns: PatternSet | Sequence) -> list[int]:
    """Avoiding words over [n] of every length 0..max_length.  A word's
    state is (present, blocked), the masks of core's _advance, which steps
    it by a letter that does not arrive blocked.  present is kept only when
    some pattern has length 3: the terms of 12, 21 and 11 read only the
    appended letter, and again holds at any repeated letter."""
    patterns = as_pattern_set(patterns)
    if n < 0 or max_length < 0:
        raise ValueError("need n >= 0 and length >= 0")
    _check_budget(max_length, COUNT_LENGTH_BUDGET, patterns)
    if any(len(p.letters) > 3 for p in patterns) and n ** max_length > PLAIN_WORD_BUDGET:
        raise BudgetExceeded(f"{n ** max_length} words of length {max_length} exceed "
                             f"the budget of {PLAIN_WORD_BUDGET}")
    terms, slow = _split(patterns)
    reads_present = any(len(p.letters) == 3 for p in patterns)
    letters = (1 << n + 1) - 2

    def expand(state: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
        return [(v, (masks[0] if reads_present else 0, masks[1] & letters))
                for v in range(1, n + 1) if (masks := _advance(*state, v, terms)) is not None]

    root, expand = _carry_word((0, 0), expand, slow)
    return [sum(level.values())
            for level in _transfer(root, functools.cache(expand), max_length)]
