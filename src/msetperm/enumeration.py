"""Brute-force oracle: generate, count and list the pattern-avoiding
permutations of a multiset, and count pattern-avoiding words.

Permutations take one depth-first walk over prefixes (walk).  It never
extends a prefix that contains a pattern, and since every letter must be
placed, it also drops a prefix at which some letter with copies left would
complete one.  It carries two masks: the letters seen and the letters whose
appending would complete a pattern.  For the canonical patterns of length 2
and 3 the second mask grows by an O(1) term at each appended letter (core's
_BLOCKS, which containment reads too); the pattern 1 and anything of length
4 or more fall back to a direct containment check.

Words need not use every letter, so word_counts_by_length counts them level
by level instead: a forward transfer over the states of the same masks, the
approach of Brändén and Mansour ("Finite automata and pattern avoidance in
words", J. Combin. Theory Ser. A, 2005).

With a pattern of length 4 or more, every path takes the smaller
PLAIN_LENGTH_BUDGET.  Counts are plain Python ints, hence arbitrary
precision.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .core import (_BLOCKS, MultisetPermutation, PatternSet, _advance, as_pattern_set,
                   contains)
from .errors import BudgetExceeded

#: Largest permutation length materialized (generate/list).
LIST_LENGTH_BUDGET = 14
#: Largest permutation or word length counted with pruning.
COUNT_LENGTH_BUDGET = 18
#: Largest length counted or listed when some pattern has length 4 or more:
#: that pattern is then tested at every node or word with no shared state.
PLAIN_LENGTH_BUDGET = 8


def _check_budget(length: int, budget: int, patterns: PatternSet) -> None:
    """BudgetExceeded when length passes budget, or passes PLAIN_LENGTH_BUDGET
    and one of the patterns has length 4 or more."""
    if length > PLAIN_LENGTH_BUDGET and any(len(p.letters) > 3 for p in patterns):
        budget = PLAIN_LENGTH_BUDGET
    if length > budget:
        raise BudgetExceeded(f"length {length} exceeds the budget of {budget}")


# The O(1) terms of the two masks, _BLOCKS, live in core with containment.


def walk(capacity: Sequence[int], patterns: PatternSet,
         visit: Callable[[list[int]], object] | None = None) -> int:
    """The package's one prefix search over the permutations of the multiset
    that holds each letter c capacity[c] times (capacity is 1-indexed by
    letter, so capacity[0] is 0): how many of them avoid the patterns.

    A prefix that contains a pattern is never extended, and the last level
    is only counted, never advanced.  Every full-length prefix places every
    letter, so a prefix at which some letter with copies left would complete
    a pattern is dead: appending it later still completes the pattern,
    because the prefix plus that letter is a subsequence of every
    completion.  Such a prefix is not expanded.

    Each node's children are the letters with copies left that are not in
    its blocked mask, the union of the _BLOCKS terms of its letters; a
    pattern without an entry (1, or length 4 or more) is tested directly on
    the prefix plus each candidate letter.

    The memo.  When every pattern has a _BLOCKS entry, every term reads only
    the appended letter, present and again, and a node's value depends on
    less than its whole prefix.  A live prefix's blocked mask meets no
    letter with copies left, and with the capacities fixed for the call, the
    remaining counts say what present and again will read.  So the
    completions depend only on the tuple of remaining counts, and the walk
    memoizes their number on that key for the length of one call.  With a
    visit the walk uses the memo only to skip a state whose stored count is
    0: any other state is descended into, so that visit sees its
    completions.  With no pattern (generation) no state is dead, and there
    is no memo.  The key does not canonicalize under symmetry.

    visit(prefix) sees each full-length prefix in lexicographic order (copy
    it to keep it).  Its return value is ignored: the walk always runs to
    the end.
    """
    n, depth = len(capacity) - 1, sum(capacity)
    fast = [_BLOCKS[p.letters] for p in patterns if p.letters in _BLOCKS]
    slow = [p for p in patterns if p.letters not in _BLOCKS]
    # listing reads the memo only to skip dead states; with no pattern there are none
    memo: dict[tuple, int] | None = {} if not slow and (visit is None or fast) else None
    letters = sum(1 << c for c in range(1, n + 1) if capacity[c])
    remaining = list(capacity)
    prefix: list[int] = []
    # only visit and the direct containment check read the prefix
    track = visit is not None or bool(slow)

    def rec(present: int, blocked: int, k: int, letters_left: int) -> int:
        """How many clean completions the current prefix has, with k
        letters left to place; its letters are the bits of present and its
        unplaced letters are the bits of letters_left."""
        free = letters_left & ~blocked
        if slow:
            for c in range(1, n + 1):
                if free >> c & 1 and any(contains(prefix + [c], p) for p in slow):
                    free ^= 1 << c
        if free != letters_left:
            return 0
        if k == 1 and visit is None:
            return free.bit_count()
        if memo is not None:
            state = tuple(remaining)
            total = memo.get(state)
            if total is not None and (visit is None or not total):
                return total
        total = 0
        while free:
            low = free & -free
            free ^= low
            c = low.bit_length() - 1
            if k == 1:
                prefix.append(c)
                visit(prefix)
                prefix.pop()
                total += 1
            else:
                if track:
                    prefix.append(c)
                remaining[c] -= 1
                lower, upper = present & (low - 1), present & -(low << 1)
                again = capacity[c] - remaining[c] == 2
                child = blocked
                for block in fast:
                    child |= block(low, lower, upper, again)
                total += rec(present | low, child, k - 1,
                             letters_left if remaining[c] else letters_left ^ low)
                remaining[c] += 1
                if track:
                    prefix.pop()
        if memo is not None:
            memo[state] = total
        return total

    if depth == 0:
        if visit is not None:
            visit(prefix)
        return 1
    return rec(0, 0, depth, letters)


def _list(n: int, mu: tuple[int, ...], patterns: PatternSet
          ) -> list[MultisetPermutation]:
    total = sum(mu)
    _check_budget(total, LIST_LENGTH_BUDGET, patterns)
    out: list[MultisetPermutation] = []
    walk((0,) + mu, patterns, lambda prefix: out.append(MultisetPermutation(tuple(prefix))))
    return out


# -- public surface ------------------------------------------------------------

def generate_all(n: int, mu: Sequence[int]) -> Iterator[MultisetPermutation]:
    """Every permutation of {1^mu(1), ..., n^mu(n)} in lexicographic order:
    the listing walk with no patterns, built in full before it is returned."""
    mu = tuple(mu)
    if n < 0 or len(mu) != n or any(m < 1 for m in mu):
        raise ValueError("need n >= 0 and a positive multiplicity for each letter")
    return iter(_list(n, mu, PatternSet(())))


def count_avoiders(n: int, m: int, patterns: PatternSet | Sequence) -> int:
    """|{sigma on [n]_m : sigma avoids every pattern}| by pruned search."""
    patterns = as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    if n == 0:
        return 1  # the empty permutation avoids every (nonempty) pattern
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
    return _list(n, (m,) * n, patterns)


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
    terms = tuple(_BLOCKS[p.letters] for p in patterns if p.letters in _BLOCKS)
    slow = [p for p in patterns if p.letters not in _BLOCKS]
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
