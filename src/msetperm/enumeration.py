"""Brute-force oracle: generate, count, and list pattern-avoiding permutations.

One walk serves counting, listing, generation (no patterns) and word
counting (each letter's capacity raised above the word length).  It visits the
prefix tree depth first and never extends a prefix that already contains a
forbidden pattern.  This is sound because containment is monotone under
appending letters.  When every letter must be placed (counting, listing and
generating permutations of a multiset), it also drops a prefix as soon as
some letter with copies left would complete a pattern: that letter still
has to come, so no completion avoids the patterns.  The walk carries two
masks: the letters seen and the letters whose appending would complete a
pattern.  For the canonical patterns of length 2 and 3 the second mask grows
by an O(1) term at each appended letter (core's _BLOCKS, which containment
reads too); the pattern 1 and anything of length 4 or more fall back to a
direct containment check.

A walk whose patterns all have an O(1) term takes one of its two memo
branches, and computes each value below a prefix once per call, keyed only
on the state that value depends on.  Counting and listing permutations
(count_avoiders, list_avoiders): the completions below a live prefix depend
only on what each letter has left.  Counting reads the stored number;
listing reads it only to skip a state with no completion, and descends into
every other state to visit its completions in order.  Counting words
(word_counts_by_length) asks the root once per length, and all lengths share
one memo: the number of clean extensions of a prefix by exactly k letters
depends only on k, the blocked letters and, when some pattern has length 3,
the letters seen; patterns of length 2 read only the appended letter.
Generation (no patterns, so no dead state), the pattern 1 and patterns of
length 4 or more keep the plain walk; with a pattern of length 4 or more,
counting and listing take the smaller PLAIN_LENGTH_BUDGET.

Counts are plain Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .core import _BLOCKS, MultisetPermutation, PatternSet, as_pattern_set, contains
from .errors import BudgetExceeded

#: Largest permutation length materialized (generate/list).
LIST_LENGTH_BUDGET = 14
#: Largest permutation length counted with pruning.
COUNT_LENGTH_BUDGET = 18
#: Largest permutation length counted or listed when some pattern has length
#: 4 or more: the walk then keeps no memo and tests that pattern at every node.
PLAIN_LENGTH_BUDGET = 8


def _check_budget(length: int, budget: int, patterns: PatternSet | None = None) -> None:
    """BudgetExceeded when length passes budget, or passes PLAIN_LENGTH_BUDGET
    and one of the patterns has length 4 or more."""
    if (patterns is not None and length > PLAIN_LENGTH_BUDGET
            and any(len(p.letters) > 3 for p in patterns)):
        budget = PLAIN_LENGTH_BUDGET
    if length > budget:
        raise BudgetExceeded(f"length {length} exceeds the budget of {budget}")


# The O(1) terms of the two masks, _BLOCKS, live in core with containment.


def walk(n: int, capacity: Sequence[int], depth: int, patterns: PatternSet,
         visit: Callable[[list[int]], object] | None = None) -> list[int]:
    """The package's one prefix search over prefixes that use each letter c
    at most capacity[c] times (capacity is 1-indexed by letter).  counts[d]
    is the number of avoidance-clean prefixes of length d.

    A prefix that contains a pattern is never extended, and the last level
    is only counted, never advanced.  When the capacities add up to depth,
    every full-length prefix places every letter, so a prefix at which some
    letter with copies left would complete a pattern is dead: appending it
    later still completes the pattern, because the prefix plus that letter
    is a subsequence of every completion.  Such a prefix is not expanded,
    and only the full length is counted: counts[d] for d < depth is 0.
    Otherwise (word counting) every length d = 1..depth is counted, each by
    its own call at the root.

    Each node's children are the letters with copies left that are not in
    its blocked mask, the union of the _BLOCKS terms of its letters; a
    pattern without an entry (1, or length 4 or more) is tested directly on
    the prefix plus each candidate letter.

    What a node returns.  Asked with k levels left, a node returns the
    number of clean extensions of its prefix by exactly k more letters.  The
    root is asked at k = depth when the capacities add up to depth, and at
    each k = 1..depth otherwise; counts[k] is its answer.

    The memo branches.  When every pattern has a _BLOCKS entry, every term
    reads only the appended letter, present and again, and a node's value
    depends on less than its whole prefix.  The walk memoizes it for the
    length of one call, keyed on that state:
    - the count, when the capacities add up to depth.  A live prefix's
      blocked mask meets no letter with copies left, and with the
      capacities fixed for the call, the remaining counts say what present
      and again will read.  The key is the tuple of remaining counts.  So
      the completions themselves depend only on that key, and with a visit
      the walk uses the memo only to skip a state whose stored count is 0:
      any other state is descended into, so that visit sees its completions.
      With no pattern (generation) no state is dead, and there is no memo.
    - words, with no visit, when no letter can run out before depth (word
      counting gives each letter more copies than the depth).  The key is
      the levels left k, blocked on the letters, and present if some pattern
      has length 3: the terms of 12, 21 and 11 read only the appended
      letter.  Lower and upper are parts of present.  Again (112, 221,
      111) holds at a letter's second copy; its term is then in blocked for
      good, so a third copy would add nothing, and present is all the key
      needs of the copies placed.  The key holds k but not the word length
      being counted, so the root calls for all lengths share the memo, and
      each state is computed once for all of them.
    Neither key canonicalizes under symmetry.

    visit(prefix) sees each full-length prefix in lexicographic order (copy
    it to keep it); when every length is counted, it sees the clean prefixes
    of each length 1..depth, shortest length first.  Its return value is
    ignored: the walk always runs to the end, so counts is always filled.
    """
    fast = [_BLOCKS[p.letters] for p in patterns if p.letters in _BLOCKS]
    slow = [p for p in patterns if p.letters not in _BLOCKS]
    dead_if_blocked = sum(capacity) == depth
    counting = visit is None and (dead_if_blocked or all(k >= depth for k in capacity[1:]))
    # listing reads the memo only to skip dead states; with no pattern there are none
    listing = visit is not None and dead_if_blocked and bool(fast)
    memo: dict[tuple, int] | None = {} if not slow and (counting or listing) else None
    reads_present = not dead_if_blocked and any(len(p.letters) == 3 for p in patterns)
    letters = sum(1 << c for c in range(1, n + 1) if capacity[c])
    counts = [1] + [0] * depth
    remaining = list(capacity)
    prefix: list[int] = []
    # only visit and the direct containment check read the prefix
    track = visit is not None or bool(slow)

    def rec(present: int, blocked: int, k: int, letters_left: int) -> int:
        """How many clean extensions of the current prefix have exactly k
        more letters; its letters are the bits of present and its unplaced
        letters are the bits of letters_left."""
        free = letters_left & ~blocked
        if slow:
            for c in range(1, n + 1):
                if free >> c & 1 and any(contains(prefix + [c], p) for p in slow):
                    free ^= 1 << c
        if dead_if_blocked and free != letters_left:
            return 0
        if k == 1 and visit is None:
            return free.bit_count()
        if memo is not None:
            state = tuple(remaining) if dead_if_blocked else \
                (k, blocked & letters, present if reads_present else 0)
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
        return counts
    # words ask the root once per length, and every length reads the one memo
    for k in (depth,) if dead_if_blocked else range(1, depth + 1):
        counts[k] = rec(0, 0, k, letters)
    return counts


def _list(n: int, mu: tuple[int, ...], patterns: PatternSet
          ) -> list[MultisetPermutation]:
    total = sum(mu)
    _check_budget(total, LIST_LENGTH_BUDGET, patterns)
    out: list[MultisetPermutation] = []
    walk(n, (0,) + mu, total, patterns,
         lambda prefix: out.append(MultisetPermutation(tuple(prefix))))
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
    return walk(n, (0,) + (m,) * n, n * m, patterns)[n * m]


def list_avoiders(n: int, m: int, patterns: PatternSet | Sequence
                  ) -> list[MultisetPermutation]:
    """The avoiders themselves, in lexicographic order."""
    patterns = as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    return _list(n, (m,) * n, patterns)


def word_counts_by_length(n: int, max_length: int,
                          patterns: PatternSet | Sequence) -> list[int]:
    """Avoiding words over [n] of every length 0..max_length, counted in one
    walk: words are the prefixes of a search in which every letter may be
    used max_length + 1 times.  So no letter runs out and the capacities
    never add up to the depth, not even at n = 1: walk counts each length
    from the root in turn, and when every pattern has length 2 or 3 all
    lengths share its word memo, keyed on the state that the patterns read."""
    patterns = as_pattern_set(patterns)
    if n < 0 or max_length < 0:
        raise ValueError("need n >= 0 and length >= 0")
    _check_budget(max_length, COUNT_LENGTH_BUDGET)
    return walk(n, (0,) + (max_length + 1,) * n, max_length, patterns)
