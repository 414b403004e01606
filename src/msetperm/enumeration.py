"""Brute-force oracle: generate, count, and list pattern-avoiding permutations.

Counting walks the prefix tree of the multiset permutations depth first and
never extends a prefix that already contains a forbidden pattern.  This is
sound because containment is monotone under appending letters.  For the
canonical patterns of length <= 3 the "would this letter complete a
pattern?" test is answered in O(1) from incrementally maintained bitmasks
and thresholds; anything longer falls back to a direct containment check.

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
# Appending c to the prefix completes a pattern exactly when the
# corresponding predicate below fires, so pruning on these tests keeps every
# visited prefix avoidance-clean.

_State = tuple  # 16 ints, see _INITIAL


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


# Danger predicates keyed by canonical pattern letters.  Each receives the
# state tuple and the candidate letter and answers "would appending complete
# an occurrence?".
_DANGER: dict[tuple[int, ...], Callable[[_State, int], bool]] = {
    (1, 2, 3): lambda s, c: c > s[4],
    (2, 1, 3): lambda s, c: c > s[5],
    (2, 3, 1): lambda s, c: c < s[6],
    (3, 2, 1): lambda s, c: c < s[7],
    (1, 3, 2): lambda s, c: bool(s[10] >> c & 1),
    (3, 1, 2): lambda s, c: bool(s[11] >> c & 1),
    (1, 1, 2): lambda s, c: c > s[8],
    (2, 2, 1): lambda s, c: c < s[9],
    (1, 1, 1): lambda s, c: bool(s[1] >> c & 1),
    (1, 2, 1): lambda s, c: bool(s[12] >> c & 1),
    (2, 1, 1): lambda s, c: bool(s[13] >> c & 1),
    (1, 2, 2): lambda s, c: bool(s[14] >> c & 1),
    (2, 1, 2): lambda s, c: bool(s[15] >> c & 1),
    (1, 2): lambda s, c: s[2] != 0 and c > s[2],
    (2, 1): lambda s, c: s[3] != 0 and c < s[3],
    (1, 1): lambda s, c: bool(s[0] >> c & 1),
    (1,): lambda s, c: True,
}


class _Engine:
    """Bundles the danger tests for one pattern set."""

    __slots__ = ("fast", "slow")

    def __init__(self, patterns: PatternSet):
        self.fast = [_DANGER[p.letters] for p in patterns if p.letters in _DANGER]
        self.slow = [p for p in patterns if p.letters not in _DANGER]

    def danger(self, state: _State, c: int, prefix: list[int]) -> bool:
        for test in self.fast:
            if test(state, c):
                return True
        if self.slow:
            candidate = prefix + [c]
            for p in self.slow:
                if contains(candidate, p):
                    return True
        return False


def _dfs(n: int, capacity: Sequence[int], total: int, patterns: PatternSet,
         visit: Callable[[list[int]], bool] | None) -> int:
    """Count avoidance-clean leaves; optionally visit each (visit returning
    False stops the search).  capacity is 1-indexed by letter."""
    engine = _Engine(patterns)
    remaining = list(capacity)
    prefix: list[int] = []
    count = 0
    stop = False

    def rec(state: _State, depth: int) -> None:
        nonlocal count, stop
        if depth == total:
            count += 1
            if visit is not None and not visit(prefix):
                stop = True
            return
        for c in range(1, n + 1):
            if stop:
                return
            if remaining[c] == 0 or engine.danger(state, c, prefix):
                continue
            remaining[c] -= 1
            prefix.append(c)
            rec(_advance(state, c, capacity[c] - remaining[c]), depth + 1)
            prefix.pop()
            remaining[c] += 1

    rec(_initial_state(n), 0)
    return count


def _count(n: int, mu: tuple[int, ...], patterns: PatternSet, override: bool) -> int:
    total = sum(mu)
    if n == 0:
        return 1  # the empty permutation avoids every (nonempty) pattern
    if len(patterns) == 0:
        # No restriction: the multinomial counts everything.
        out = math.factorial(total)
        for m in mu:
            out //= math.factorial(m)
        return out
    _check_budget(total, COUNT_LENGTH_BUDGET, override)
    capacity = (0,) + mu
    return _dfs(n, capacity, total, patterns, None)


def _list(n: int, mu: tuple[int, ...], patterns: PatternSet,
          limit: int | None, override: bool) -> list[MultisetPermutation]:
    total = sum(mu)
    if n == 0:
        return [MultisetPermutation((), 0, ())][: limit if limit is not None else 1]
    _check_budget(total, LIST_LENGTH_BUDGET, override)
    capacity = (0,) + mu
    out: list[MultisetPermutation] = []

    def visit(prefix: list[int]) -> bool:
        out.append(MultisetPermutation(tuple(prefix), n, mu))
        return limit is None or len(out) < limit

    _dfs(n, capacity, total, patterns, visit)
    return out


# -- public surface ------------------------------------------------------------

def generate_all(n: int, mu: Sequence[int], *, override_budget: bool = False
                 ) -> Iterator[MultisetPermutation]:
    """Yield every permutation of {1^mu(1), ..., n^mu(n)} in lexicographic order."""
    mu = tuple(mu)
    if n < 0 or len(mu) != n or any(m < 1 for m in mu):
        raise ValueError("need n >= 0 and a positive multiplicity for each letter")
    total = sum(mu)
    if n == 0:
        yield MultisetPermutation((), 0, ())
        return
    _check_budget(total, LIST_LENGTH_BUDGET, override_budget)
    remaining = [0] + list(mu)
    prefix: list[int] = []

    def rec(depth: int) -> Iterator[MultisetPermutation]:
        if depth == total:
            yield MultisetPermutation(tuple(prefix), n, mu)
            return
        for c in range(1, n + 1):
            if remaining[c]:
                remaining[c] -= 1
                prefix.append(c)
                yield from rec(depth + 1)
                prefix.pop()
                remaining[c] += 1

    yield from rec(0)


def count_avoiders(n: int, m: int, patterns: PatternSet | Sequence, *,
                   override_budget: bool = False) -> int:
    """|{sigma on [n]_m : sigma avoids every pattern}| by pruned search."""
    patterns = _as_pattern_set(patterns)
    if n < 0 or (n > 0 and m < 1):
        raise ValueError("need n >= 0 and m >= 1")
    return _count(n, (m,) * n, patterns, override_budget)


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


def _as_pattern_set(patterns) -> PatternSet:
    if isinstance(patterns, PatternSet):
        return patterns
    return PatternSet.of(*patterns)
