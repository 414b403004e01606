"""Brute-force oracle: generate, count, and list pattern-avoiding permutations.

One walk serves counting, listing, generation (no patterns) and word
counting (each letter's capacity raised to the word length).  It visits the
prefix tree depth first and never extends a prefix that already contains a
forbidden pattern.  This is sound because containment is monotone under
appending letters.  When every letter must be placed (counting, listing and
generating permutations of a multiset), it also drops a prefix as soon as
some letter with copies left would complete a pattern: that letter still
has to come, so no completion avoids the patterns.  For the canonical
patterns of length <= 3 the "which letters would complete a pattern?" test
is one mask computed in O(1) from incrementally maintained bitmasks and
thresholds; anything longer falls back to a direct containment check.

Counts are plain Python ints, hence arbitrary precision.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .core import MultisetPermutation, PatternSet, contains
from .errors import BudgetExceeded

#: Largest permutation length materialized (generate/list) without override.
LIST_LENGTH_BUDGET = 14
#: Largest permutation length counted with pruning without override.
COUNT_LENGTH_BUDGET = 18


def _check_budget(length: int, budget: int, override: bool) -> None:
    if length > budget and not override:
        raise BudgetExceeded(
            f"length {length} exceeds the budget of {budget}; "
            f"pass override_budget=True to proceed anyway"
        )


# -- incremental avoidance state ----------------------------------------------
#
# State components, all over letters 1..n (bit v of a mask stands for the
# letter v):
#   present / twice   letters seen at least once / twice
#   minp / maxp       smallest / largest letter seen (0 while empty)
#   t123              least top of an ascent pair seen so far
#   t213              least x that occurred before some smaller letter
#   t231              greatest x that occurred before some larger letter
#   t321              greatest letter that occurred after some larger one
#   t112              least letter seen twice
#   t221              greatest letter seen twice
#   m132              letters lying strictly inside some ascent pair
#   m312              letters lying strictly inside some descent pair
#   m121              letters followed (so far) by some larger letter
#   m211              letters preceded by some larger letter
#   m122              letters preceded by some smaller letter
#   m212              letters followed by some smaller letter
#
# Appending c to the prefix completes a pattern exactly when c is in the
# corresponding danger mask below, so pruning on these masks keeps every
# visited prefix avoidance-clean.

_State = tuple  # 16 ints, see _initial_state


def _initial_state(n: int) -> _State:
    inf = n + 1
    return (0, 0, 0, 0, inf, inf, 0, 0, inf, 0, 0, 0, 0, 0, 0, 0)


def _advance(state: _State, t: int, count_after: int) -> _State:
    (present, twice, minp, maxp, t123, t213, t231, t321,
     t112, t221, m132, m312, m121, m211, m122, m212) = state
    bit = 1 << t
    below = bit - 1        # letters < t
    lower = present & below
    upper = present & ~(below | bit)
    if lower:
        # some smaller letter precedes t: ascent pairs ending at t
        if t < t123:
            t123 = t
        m122 |= bit
        m132 |= below & ~((1 << (minp + 1)) - 1)  # strictly between minp and t
        m121 |= lower
        hi = lower.bit_length() - 1
        if hi > t231:
            t231 = hi
    if upper:
        # some larger letter precedes t: descent pairs ending at t
        m212 |= upper
        m211 |= bit
        if t > t321:
            t321 = t
        lo = (upper & -upper).bit_length() - 1
        if lo < t213:
            t213 = lo
        m312 |= ((1 << maxp) - 1) & ~((1 << (t + 1)) - 1)  # strictly between t and maxp
    if count_after == 2:
        twice |= bit
        if t < t112:
            t112 = t
        if t > t221:
            t221 = t
    present |= bit
    if minp == 0 or t < minp:
        minp = t
    if t > maxp:
        maxp = t
    return (present, twice, minp, maxp, t123, t213, t231, t321,
            t112, t221, m132, m312, m121, m211, m122, m212)


# Danger masks keyed by canonical pattern letters.  Each maps the state
# tuple to the set of letters (bit v for the letter v) whose appending would
# complete an occurrence.  -(2 << t) holds every letter above t, and
# (1 << t) - 1 every letter below it.
_DANGER: dict[tuple[int, ...], Callable[[_State], int]] = {
    (1, 2, 3): lambda s: -(2 << s[4]),
    (2, 1, 3): lambda s: -(2 << s[5]),
    (2, 3, 1): lambda s: (1 << s[6]) - 1,
    (3, 2, 1): lambda s: (1 << s[7]) - 1,
    (1, 3, 2): lambda s: s[10],
    (3, 1, 2): lambda s: s[11],
    (1, 1, 2): lambda s: -(2 << s[8]),
    (2, 2, 1): lambda s: (1 << s[9]) - 1,
    (1, 1, 1): lambda s: s[1],
    (1, 2, 1): lambda s: s[12],
    (2, 1, 1): lambda s: s[13],
    (1, 2, 2): lambda s: s[14],
    (2, 1, 2): lambda s: s[15],
    (1, 2): lambda s: -(2 << s[2]) if s[2] else 0,
    (2, 1): lambda s: (1 << s[3]) - 1,
    (1, 1): lambda s: s[0],
    (1,): lambda s: -1,
}


def walk(n: int, capacity: Sequence[int], depth: int, patterns: PatternSet,
         visit: Callable[[list[int]], bool] | None = None) -> list[int]:
    """The package's one prefix search over prefixes that use each letter c
    at most capacity[c] times (capacity is 1-indexed by letter).  counts[d]
    is the number of avoidance-clean prefixes of length d that it reached.

    A prefix that contains a pattern is never extended, and the last level
    is only counted, never advanced.  When the capacities add up to depth,
    every full-length prefix places every letter, so a prefix at which some
    letter with copies left would complete a pattern is dead: appending it
    later still completes the pattern, because the prefix plus that letter
    is a subsequence of every completion.  Such a prefix is not expanded,
    its children are not counted, and counts[d] for d < depth counts only
    the clean prefixes of length d whose proper prefixes are all live, so
    callers read counts[depth] alone.  Otherwise (word counting) counts[d]
    is every clean prefix of length d.

    visit(prefix) sees each full-length prefix in lexicographic order (copy
    it to keep it); a False return stops the search, leaving the counts
    partial.
    """
    fast = [_DANGER[p.letters] for p in patterns if p.letters in _DANGER]
    slow = [p for p in patterns if p.letters not in _DANGER]
    dead_if_blocked = sum(capacity) == depth
    counts = [1] + [0] * depth
    remaining = list(capacity)
    prefix: list[int] = []

    def rec(state: _State, d: int, letters_left: int) -> bool:
        """Walk below the current prefix, whose unplaced letters are the
        bits of letters_left; False once visit asks to stop."""
        blocked = 0
        for danger in fast:
            blocked |= danger(state)
        free = letters_left & ~blocked
        if slow:
            for c in range(1, n + 1):
                if free >> c & 1 and any(contains(prefix + [c], p) for p in slow):
                    free ^= 1 << c
        if dead_if_blocked and free != letters_left:
            return True
        counts[d + 1] += free.bit_count()
        last = d + 1 == depth
        if last and visit is None:
            return True
        while free:
            low = free & -free
            free ^= low
            c = low.bit_length() - 1
            prefix.append(c)
            if last:
                keep = visit(prefix)
            else:
                remaining[c] -= 1
                keep = rec(_advance(state, c, capacity[c] - remaining[c]), d + 1,
                           letters_left if remaining[c] else letters_left ^ low)
                remaining[c] += 1
            prefix.pop()
            if not keep:
                return False
        return True

    if depth == 0:
        if visit is not None:
            visit(prefix)
    else:
        rec(_initial_state(n), 0, sum(1 << c for c in range(1, n + 1) if capacity[c]))
    return counts


def _list(n: int, mu: tuple[int, ...], patterns: PatternSet,
          limit: int | None, override: bool) -> list[MultisetPermutation]:
    total = sum(mu)
    _check_budget(total, LIST_LENGTH_BUDGET, override)
    out: list[MultisetPermutation] = []

    def visit(prefix: list[int]) -> bool:
        out.append(MultisetPermutation(tuple(prefix), n, mu))
        return limit is None or len(out) < limit

    walk(n, (0,) + mu, total, patterns, visit)
    return out


# -- public surface ------------------------------------------------------------

def generate_all(n: int, mu: Sequence[int], *, override_budget: bool = False
                 ) -> Iterator[MultisetPermutation]:
    """Every permutation of {1^mu(1), ..., n^mu(n)} in lexicographic order:
    the listing walk with no patterns, built in full before it is returned."""
    mu = tuple(mu)
    if n < 0 or len(mu) != n or any(m < 1 for m in mu):
        raise ValueError("need n >= 0 and a positive multiplicity for each letter")
    return iter(_list(n, mu, PatternSet(()), None, override_budget))


def count_avoiders(n: int, m: int, patterns: PatternSet | Sequence, *,
                   override_budget: bool = False) -> int:
    """|{sigma on [n]_m : sigma avoids every pattern}| by pruned search."""
    patterns = _as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    if n == 0:
        return 1  # the empty permutation avoids every (nonempty) pattern
    if len(patterns) == 0:
        # No restriction: the multinomial counts everything.
        return math.factorial(n * m) // math.factorial(m) ** n
    _check_budget(n * m, COUNT_LENGTH_BUDGET, override_budget)
    return walk(n, (0,) + (m,) * n, n * m, patterns)[n * m]


def list_avoiders(n: int, m: int, patterns: PatternSet | Sequence,
                  limit: int | None = None, *, override_budget: bool = False
                  ) -> list[MultisetPermutation]:
    """The avoiders themselves, lexicographically, up to limit items."""
    patterns = _as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    if limit is not None and limit == 0:
        return []
    return _list(n, (m,) * n, patterns, limit, override_budget)


def word_counts_by_length(n: int, max_length: int, patterns: PatternSet | Sequence,
                          *, override_budget: bool = False) -> list[int]:
    """Avoiding words over [n] of every length 0..max_length, counted in one
    walk: words are the prefixes of a search in which every letter may be
    used max_length times."""
    patterns = _as_pattern_set(patterns)
    if n < 0 or max_length < 0:
        raise ValueError("need n >= 0 and length >= 0")
    _check_budget(max_length, COUNT_LENGTH_BUDGET, override_budget)
    return walk(n, (0,) + (max_length,) * n, max_length, patterns)


def _as_pattern_set(patterns) -> PatternSet:
    if isinstance(patterns, PatternSet):
        return patterns
    return PatternSet.of(*patterns)
