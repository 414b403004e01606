"""Growth probes: how fast do avoider counts grow in the length n*m?

Avoiding an ordinary pattern keeps the count exponential in the length;
avoiding a pattern with repeated letters can leave super-exponential
families (the 212-avoiders are the standard example).  The probes report
exact counts together with the display-only ratio count**(1/(n*m)).

Words (letter counts unconstrained) are counted by enumeration's
word_counts_by_length, level by level as the permutations are, over states
of the masks of the letters seen and blocked; this module publishes it
beside the permutation probes.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from . import enumeration
from .core import Pattern, PatternSet, as_pattern_set
from .enumeration import count_avoiders
from .errors import OutOfDomain, Unsupported
from .formulas import proved_count, stirling_count

_PATTERN_212 = Pattern((2, 1, 2))

word_counts_by_length = enumeration.word_counts_by_length


class GrowthRow(NamedTuple):
    n: int
    m: int
    count: int
    ratio: float  # count**(1/(n*m)); display only, never used in a count


def _growth_ratio(count: int, length: int) -> float:
    if count <= 0 or length <= 0:
        return 0.0
    return math.exp(math.log(count) / length)


def _best_count(patterns: PatternSet, n: int, m: int) -> int:
    if len(patterns) == 1 and patterns.patterns[0] == _PATTERN_212:
        return stirling_count(n, m)
    if len(patterns) == 2:
        try:
            return proved_count(patterns, n, m)
        except (Unsupported, OutOfDomain):
            pass
    return count_avoiders(n, m, patterns)


def growth_table(patterns: PatternSet | Sequence, grid: Iterable[tuple[int, int]]
                 ) -> list[GrowthRow]:
    """Exact counts and growth ratios over a grid of (n, m) cells.

    The pattern 212 alone is counted by the Stirling product, a pair by
    formulas.proved_count where that serves the cell (quoted rows not proved
    here never count), and the rest by the enumeration oracle (subject to
    its length budget).
    """
    patterns = as_pattern_set(patterns)
    rows = []
    for n, m in grid:
        count = _best_count(patterns, n, m)
        rows.append(GrowthRow(n, m, count, _growth_ratio(count, n * m)))
    return rows

