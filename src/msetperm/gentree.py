"""Generating-tree engine: succession rules counted level by level.

A succession rule is a label-rewriting system: a root label plus a map from
a parent label to the ordered multiset of its children's labels.  Nodes at
height h correspond to the counted objects of size h, so counting a family
means iterating a label -> multiplicity profile one level at a time.
`levels` walks the heights in one pass and keeps only the current level;
`count_at_height` is the last total of that pass.

Two of the built-in rules produce children on a contiguous label interval
whose width grows with the parent label; for those the level step is done
with suffix-sum accumulation so the work per level is linear in the largest
label rather than quadratic.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from .classify import canonical_pair
from .core import first_ascent, first_descent, first_repetition
from .errors import UnknownRule, Unsupported

#: Dead label: such nodes are counted but never extended.
DEAD = "N"

Label = int | str
Profile = dict[Label, int]


class SuccessionRule(NamedTuple):
    """A named label-rewriting system with an optional fast level step.

    `children(label)` gives a node's ordered child labels exactly as the rule
    writes them, and `grammar` its plain-text productions.  The generic
    expansion of `children` in `step` is the reference for `fast_step`.
    """

    name: str
    m: int
    root: Label
    children: Callable[[Label], tuple[Label, ...]]
    fast_step: Callable[[Profile], Profile] | None
    grammar: str

    def step(self, profile: Profile) -> Profile:
        if self.fast_step is not None:
            return self.fast_step(profile)
        out: Profile = {}
        for label, count in profile.items():
            for child in self.children(label):
                out[child] = out.get(child, 0) + count
        return out


def _suffix_sum_step(lo: int, shift: int) -> Callable[[Profile], Profile]:
    """Level step for interval rules: parent label a yields one child for
    every label c in [lo, a + shift], so the child profile is a suffix sum
    new[c] = sum of old[a] over a >= c - shift."""
    def step(profile: Profile) -> Profile:
        if not profile:
            return {}
        hi = max(profile) + shift
        acc = 0
        out: Profile = {}
        for c in range(hi, lo - 1, -1):
            acc += profile.get(c - shift, 0)
            if acc:
                out[c] = acc
        return out
    return step


def _rule_repetition(m: int) -> SuccessionRule:
    # children(r) = (2)(3)...(r)(r+1)
    def children(label: Label) -> tuple[Label, ...]:
        r = _expect_int(label, minimum=1)
        return tuple(range(2, r + 2))

    grammar = "root 1\n(r) -> (2) (3) ... (r) (r+1)"
    return SuccessionRule("112-122@m2", m, 1, children,
                          _suffix_sum_step(lo=2, shift=1), grammar)


def _rule_first_ascent(m: int) -> SuccessionRule:
    # children(a) = (m+a)(m+1)(m+2)...(m+a-1): the interval [m+1, m+a] with
    # the top label written first.
    def children(label: Label) -> tuple[Label, ...]:
        a = _expect_int(label, minimum=1)
        return (m + a,) + tuple(range(m + 1, m + a))

    grammar = f"root 1\n(a) -> (a+{m}) ({m + 1}) ({m + 2}) ... (a+{m - 1})"
    return SuccessionRule("122-123", m, 1, children,
                          _suffix_sum_step(lo=m + 1, shift=m), grammar)


def _rule_descent_offset(m: int) -> SuccessionRule:
    """The (211,213) tree.  Its labels are only a counting device: unlike
    the other three rules' labels they match no positional statistic of the
    avoiders (at m = 3 the height-3 profile is {2: 5, 1: 2, N: 2})."""
    # root 1; 1 -> 2; 2 -> 2 1 N^(m-2) 2; N -> nothing
    def children(label: Label) -> tuple[Label, ...]:
        if label == DEAD:
            return ()
        v = _expect_int(label, minimum=1, maximum=2)
        if v == 1:
            return (2,)
        return (2, 1) + (DEAD,) * (m - 2) + (2,)

    two_rhs = " ".join(["2", "1"] + ["N"] * (m - 2) + ["2"])
    grammar = f"root 1\n1 -> 2\n2 -> {two_rhs}\nN ->"
    return SuccessionRule("211-213", m, 1, children, None, grammar)


def _rule_first_descent(m: int) -> SuccessionRule:
    # root 1; 1 -> m+1; m+1 -> (m+1) m^m; m -> (m+1) m^(m-1)
    def children(label: Label) -> tuple[Label, ...]:
        v = _expect_int(label, minimum=1)
        if v == 1:
            return (m + 1,)
        if v == m + 1:
            return (m + 1,) + (m,) * m
        if v == m:
            return (m + 1,) + (m,) * (m - 1)
        raise AssertionError(f"label {v} is unreachable in rule 122-213")

    top = " ".join([str(m + 1)] + [str(m)] * m)
    mid = " ".join([str(m + 1)] + [str(m)] * (m - 1))
    grammar = f"root 1\n1 -> {m + 1}\n{m + 1} -> {top}\n{m} -> {mid}"
    return SuccessionRule("122-213", m, 1, children, None, grammar)


def _expect_int(label: Label, minimum: int, maximum: int | None = None) -> int:
    # Label 0 (and anything below the minimum) is unreachable by
    # construction in every built-in rule; hitting one means the engine is
    # broken, so fail loudly instead of inventing children.
    if not isinstance(label, int) or label < minimum or \
            (maximum is not None and label > maximum):
        raise AssertionError(f"unreachable label {label!r}")
    return label


class _Rule(NamedTuple):
    factory: Callable[[int], SuccessionRule]
    pair: tuple[str, str]
    statistic: Callable[[Sequence[int]], int] | None
    fixed_m: int | None


#: One row per built-in rule: its factory; the pattern pair whose avoiders
#: the tree counts; the positional statistic its labels record, so that the
#: profile at height n is that statistic's distribution over the avoiders of
#: [n]_m (None: the 211-213 labels record none); and the one m the rule is
#: fixed to (None: any m >= 2).
_RULES = {
    "112-122@m2": _Rule(_rule_repetition, ("112", "122"), first_repetition, 2),
    "122-123": _Rule(_rule_first_ascent, ("122", "123"), first_ascent, None),
    "211-213": _Rule(_rule_descent_offset, ("211", "213"), None, None),
    "122-213": _Rule(_rule_first_descent, ("122", "213"), first_descent, None),
}

#: Rule name -> the pattern pair whose avoiders the tree counts.
RULE_PATTERN_PAIRS = {name: row.pair for name, row in _RULES.items()}
#: Rule name -> the statistic its labels record, for the labelled rules.
LABEL_STATISTICS = {name: row.statistic for name, row in _RULES.items()
                    if row.statistic is not None}
_RULE_BY_CLASS = {canonical_pair(row.pair): name for name, row in _RULES.items()}


def rule_ms(name: str, m_max: int) -> tuple[int, ...]:
    """The multiplicities up to m_max that rule name takes (its fixed m
    whatever m_max)."""
    fixed = _RULES[name].fixed_m
    return (fixed,) if fixed is not None else tuple(range(2, m_max + 1))


def builtin_rule(name: str, m: int = 2) -> SuccessionRule:
    """One of the four built-in succession rules, at an m >= 2 that its
    table row allows."""
    row = _RULES.get(name)
    if row is None:
        raise UnknownRule(f"unknown rule {name!r}; choose from {sorted(_RULES)}")
    if m < 2:
        raise UnknownRule(f"rule {name!r} needs m >= 2")
    if row.fixed_m not in (None, m):
        raise UnknownRule(f"rule {name!r} fixes m = {row.fixed_m}")
    return row.factory(m)


def rule_for(pair, m: int) -> SuccessionRule:
    """The built-in rule that counts pair's symmetry class, at m."""
    name = _RULE_BY_CLASS.get(canonical_pair(pair))
    if name is None:
        raise Unsupported(f"no built-in succession rule covers {pair}")
    return builtin_rule(name, m)


def levels(rule: SuccessionRule, height: int) -> Iterator[Profile]:
    """The label -> node-count profile of each height 0..height, in one pass
    that keeps only the current level (the root sits at height 0)."""
    if height < 0:
        raise ValueError("height must be nonnegative")
    profile: Profile = {rule.root: 1}
    yield profile
    for _ in range(height):
        profile = rule.step(profile)
        yield profile


def count_at_height(rule: SuccessionRule, height: int) -> int:
    """Number of tree nodes at the given height: the last total of levels."""
    for profile in levels(rule, height):
        pass
    return sum(profile.values())
