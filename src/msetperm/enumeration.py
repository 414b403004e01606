"""Brute-force oracle: generate, count and list the pattern-avoiding
permutations of a multiset, and count pattern-avoiding words.

Both are counted level by level, one letter per level, by a forward
transfer: a level maps each state to the number of prefixes or words that
reach it, and the next level adds that number into every state that an
allowed letter leads to (the approach of Brändén and Mansour, "Finite
automata and pattern avoidance in words", J. Combin. Theory Ser. A, 2005).
For the canonical patterns of length 2 and 3 a letter is decided by O(1)
terms over the letters seen (core's _BLOCKS, which containment reads too);
the pattern 1 and anything of length 4 or more are tested directly.

A permutation places every letter, so its state is the tuple of remaining
copies (walk).  Listing records each level's allowed steps and then builds
every state's completions backward, deepest level first; a pattern without
a term is tested on each completion.  A word need not place every letter,
so its state carries the masks of the letters seen and blocked
(word_counts_by_length), and the word itself when a pattern without a term
is tested on it.

With a pattern of length 4 or more, every path takes the smaller
PLAIN_LENGTH_BUDGET, and word counting the PLAIN_WORD_BUDGET too.  Counts
are plain Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .core import (MultisetPermutation, PatternSet, _advance, _set_terms, as_pattern_set,
                   contains, format_letters)
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


def walk(capacity: Sequence[int], patterns: PatternSet,
         visit: Callable[[tuple[int, ...]], object] | None = None) -> int:
    """The package's one search over the permutations of the multiset that
    holds each letter c capacity[c] times (capacity is 1-indexed by letter,
    so capacity[0] is 0): how many of them avoid the patterns.

    A prefix's state is its tuple of remaining copies.  Every letter must be
    placed, so a prefix at which some letter with copies left would
    complete a pattern is dead: the prefix plus that letter is a
    subsequence of every completion.  So a letter is allowed only when its
    own _BLOCKS terms block none of the letters left after it, and no dead
    prefix is reached.  The terms read the letter, the letters seen (those
    with fewer copies left than their capacity) and whether it was seen
    before, so the allowed letters depend only on the state.  Counting maps
    each state to the number of prefixes that reach it, keeps no steps, and
    stops one level short: a live state with one letter left has exactly
    one completion.  The state does not canonicalize under symmetry.

    Listing runs the same transfer to the last level, recording each
    state's allowed (letter, child) steps, one dict per level.  One backward
    build, deepest level first, then gives each state its completions: its
    allowed letters in increasing order, each followed by every completion
    of its child.  The full state's completion is (), and a dead state's
    list is empty.  The root's list is the listing, in lexicographic order,
    and the count is its length.  Only two adjacent levels of completions
    exist at once.  A pattern without a _BLOCKS term (1, or length 4 or
    more) is tested on each completion as it is built: a word that contains
    it makes every longer word ending in it contain it too.

    visit(word) sees each listed word, a tuple, in lexicographic order.  Its
    return value is ignored.
    """
    depth = sum(capacity)
    blocks = _set_terms(patterns)
    terms = [term for term in blocks if term is not None]
    slow = [p for p, term in zip(patterns, blocks) if term is None]
    counting = visit is None and not slow
    letters = range(1, len(capacity))
    levels: list[dict[tuple, list[tuple[int, tuple]]]] = []
    level = {tuple(capacity): 1}
    for _ in range(depth - 1 if counting else depth):
        following: dict[tuple, int] = {}
        get = following.get
        if not counting:
            levels.append(steps := {})
        for remaining, ways in level.items():
            present = left = 0
            for c in letters:
                if remaining[c]:
                    left |= 1 << c
                if remaining[c] < capacity[c]:
                    present |= 1 << c
            if not counting:
                steps[remaining] = allowed = []
            work = list(remaining)
            for c in letters:
                copies = remaining[c]
                if copies:
                    bit = 1 << c
                    after = left ^ bit if copies == 1 else left
                    lower, upper, again = present & (bit - 1), present & -(bit << 1), present & bit
                    for term in terms:
                        if term(bit, lower, upper, again) & after:
                            break
                    else:
                        work[c] = copies - 1
                        child = tuple(work)
                        work[c] = copies
                        following[child] = get(child, 0) + ways
                        if not counting:
                            allowed.append((c, child))
        level = following
    if counting:
        return sum(level.values())
    completions = dict.fromkeys(level, [()])
    while levels:
        steps = levels.pop()
        # a lone state is the only parent of the next level's states, so
        # each child's completions are dropped once read
        take = completions.pop if len(steps) == 1 else completions.__getitem__
        completions = {remaining: [(c,) + tail for c, child in allowed for tail in take(child)]
                       for remaining, allowed in steps.items()}
        if slow:
            for words in completions.values():
                words[:] = [word for word in words if not any(contains(word, p) for p in slow)]
    listing = completions[tuple(capacity)]
    if visit is not None:
        for word in listing:
            visit(word)
    return len(listing)


def _list(mu: tuple[int, ...], patterns: PatternSet) -> list[MultisetPermutation]:
    """The permutations of {1^mu(1), ..., n^mu(n)} that avoid the patterns.
    Each is checked by one sort and compare with the sorted letters of mu,
    built once, and an AssertionError names one that fails."""
    _check_budget(sum(mu), LIST_LENGTH_BUDGET, patterns)
    expected = [c for c, copies in enumerate(mu, 1) for _ in range(copies)]
    out: list[MultisetPermutation] = []
    known = MultisetPermutation._known

    def keep(prefix: tuple[int, ...]) -> None:
        if sorted(prefix) != expected:
            raise AssertionError(f"listed {format_letters(prefix)}, not a permutation "
                                 f"of the multiset with multiplicities {mu}")
        out.append(known(prefix))

    walk((0,) + mu, patterns, keep)
    return out


# -- public surface ------------------------------------------------------------

def generate_all(n: int, mu: Sequence[int]) -> Iterator[MultisetPermutation]:
    """Every permutation of {1^mu(1), ..., n^mu(n)} in lexicographic order:
    the listing walk with no patterns, built in full before it is returned."""
    mu = tuple(mu)
    if n < 0 or len(mu) != n or any(m < 1 for m in mu):
        raise ValueError("need n >= 0 and a positive multiplicity for each letter")
    return iter(_list(mu, PatternSet(())))


def count_avoiders(n: int, m: int, patterns: PatternSet | Sequence) -> int:
    """|{sigma on [n]_m : sigma avoids every pattern}| by pruned search."""
    patterns = as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    if len(patterns) == 0:
        # No restriction: the multinomial counts everything.
        return math.factorial(n * m) // math.factorial(m) ** n
    _check_budget(n * m, COUNT_LENGTH_BUDGET, patterns)
    return walk((0,) + (m,) * n, patterns)


def list_avoiders(n: int, m: int, patterns: PatternSet | Sequence
                  ) -> list[MultisetPermutation]:
    """The avoiders themselves, in lexicographic order."""
    patterns = as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    return _list((m,) * n, patterns)


def word_counts_by_length(n: int, max_length: int,
                          patterns: PatternSet | Sequence) -> list[int]:
    """Avoiding words over [n] of every length 0..max_length, counted level
    by level.  A level maps each state to the number of clean words that
    reach it, and core's _advance steps a state by a letter.  The state is
    blocked on the letters; present too when some pattern has length 3 (the
    terms of 12, 21 and 11 read only the appended letter, and again holds at
    any repeated letter); and the word itself when some pattern has no
    _BLOCKS term, which is tested on the word plus each letter.  Each
    state's steps are computed once per call, in a local table: a state
    reached at many lengths is expanded once."""
    patterns = as_pattern_set(patterns)
    if n < 0 or max_length < 0:
        raise ValueError("need n >= 0 and length >= 0")
    _check_budget(max_length, COUNT_LENGTH_BUDGET, patterns)
    if any(len(p.letters) > 3 for p in patterns) and n ** max_length > PLAIN_WORD_BUDGET:
        raise BudgetExceeded(f"{n ** max_length} words of length {max_length} exceed "
                             f"the budget of {PLAIN_WORD_BUDGET}")
    blocks = _set_terms(patterns)
    terms = tuple([term for term in blocks if term is not None])
    slow = [p for p, term in zip(patterns, blocks) if term is None]
    reads_present = any(len(p.letters) == 3 for p in patterns)
    letters = (1 << n + 1) - 2
    steps: dict[tuple, list[tuple]] = {}
    level = {(0, 0, ()): 1}
    counts = [1]
    for _ in range(max_length):
        following: dict[tuple, int] = {}
        for state, words in level.items():
            targets = steps.get(state)
            if targets is None:
                present, blocked, word = state
                targets = steps[state] = []
                for v in range(1, n + 1):
                    masks = _advance(present, blocked, v, terms)
                    if masks is not None and not any(contains(word + (v,), p) for p in slow):
                        targets.append((masks[0] if reads_present else 0, masks[1] & letters,
                                        word + (v,) if slow else ()))
            for target in targets:
                following[target] = following.get(target, 0) + words
        level = following
        counts.append(sum(level.values()))
    return counts
