"""Symmetry classes of pattern pairs and empirical Wilf grouping.

Reverse and complement preserve avoidance counts on regular multisets, so
unordered pattern pairs fall into orbits under {id, r, c, rc} applied to
both patterns at once.  Counting problems only need to be solved once per
orbit.
"""

from __future__ import annotations

import functools
import itertools

from .core import _Value, LENGTH3_PATTERNS, PatternSet, as_pattern_set
from .enumeration import COUNT_LENGTH_BUDGET, count_avoiders
from .errors import BudgetExceeded, Unsupported


def _as_pair(pair) -> PatternSet:
    patterns = as_pattern_set(pair)
    if len(patterns) != 2:
        raise ValueError("expected exactly two distinct patterns")
    return patterns


class PatternPairClass(_Value):
    """One orbit of a two-pattern PatternSet under reverse/complement."""

    __slots__ = ("members",)
    members: tuple[PatternSet, ...]

    def __init__(self, members: tuple[PatternSet, ...]) -> None:
        assert 4 % len(members) == 0
        object.__setattr__(self, "members", members)

    @property
    def representative(self) -> PatternSet:
        return min(self.members)

    def __contains__(self, pair) -> bool:
        return _as_pair(pair) in self.members

    def __str__(self) -> str:
        a, b = self.representative
        return f"({a},{b})[x{len(self.members)}]"


def symmetry_closure(pair) -> PatternPairClass:
    """Orbit of an unordered pair under simultaneous reverse/complement."""
    pair = _as_pair(pair)
    reverse = pair.reverse()
    members = {pair, reverse, pair.complement(), reverse.complement()}
    return PatternPairClass(tuple(sorted(members)))


def canonical_pair(pair) -> PatternSet:
    """Deterministic representative: the lexicographically least orbit member,
    a two-pattern PatternSet, whatever shape the pair is given in."""
    return _orbit_representative(_as_pair(pair))


@functools.cache
def _orbit_representative(pair: PatternSet) -> PatternSet:
    # keyed on the pair read as a set, so every input shape shares one entry
    return symmetry_closure(pair).representative


def classify_all_length3() -> tuple[PatternPairClass, ...]:
    """Classify all unordered pairs of distinct canonical length-3 patterns
    over at least two values (the twelve patterns; 111 is excluded and
    handled separately by the formula catalog).

    Returns the classes sorted by representative.  Exhaustive orbit counting
    gives 21 classes over the 66 pairs; a Burnside count
    (66 + 6 + 6 + 6) / 4 confirms it.
    """
    seen: dict[PatternSet, PatternPairClass] = {}
    for pair in itertools.combinations(LENGTH3_PATTERNS, 2):
        cls = symmetry_closure(pair)
        seen.setdefault(cls.representative, cls)
    return tuple(sorted(seen.values(), key=lambda c: c.representative))


def count_vector(pair, n_max: int, m_max: int) -> tuple[int, ...]:
    """Avoider counts over the (n, m) grid, row-major in n then m."""
    patterns = _as_pair(pair)
    out = []
    for n in range(1, n_max + 1):
        for m in range(2, m_max + 1):
            out.append(count_avoiders(n, m, patterns))
    return tuple(out)


def empirical_wilf_classes(n_max: int, m_max: int
                           ) -> tuple[tuple[PatternPairClass, ...], ...]:
    """Group the symmetry classes by their counting vectors on a finite grid.

    Equality on the grid is evidence of Wilf equivalence, not a proof; the
    grouping refines as the grid grows (and may split again, as the two
    Fibonacci-like classes do once m = 3 is included).  A grid with no
    cell (n_max < 1 or m_max < 2) is Unsupported: every class would group
    together on an empty vector.
    """
    if n_max < 1 or m_max < 2:
        raise Unsupported(f"the grid 1 <= n <= {n_max}, 2 <= m <= {m_max} has no cell")
    if n_max * m_max > COUNT_LENGTH_BUDGET:
        raise BudgetExceeded(
            f"grid corner n={n_max}, m={m_max} exceeds the counting budget"
        )
    groups: dict[tuple[int, ...], list[PatternPairClass]] = {}
    for cls in classify_all_length3():
        vec = count_vector(cls.representative, n_max, m_max)
        groups.setdefault(vec, []).append(cls)
    return tuple(tuple(g) for g in sorted(groups.values(),
                                          key=lambda g: g[0].representative))

