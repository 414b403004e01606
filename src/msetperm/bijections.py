"""The three constructive correspondences behind the counting results.

* balanced X/Y words of length 2n  <->  (112,122)-avoiders on [n]_2
* label sequences and lattice paths  <->  (122,123)-avoiders on [n]_m
* the minima-fixing map between (122,132)- and (122,123)-avoiders

Each direction checks every permutation it takes or returns: an occurrence
of a forbidden pattern raises NotInDomain naming the positions.  The
minima-fixing map also checks, by one sort and compare, that its image is a
permutation of its input's letters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from .core import (
    _Value,
    MultisetPermutation,
    PatternSet,
    find_occurrence,
    format_letters,
    normalize_pattern,
)
from .errors import (
    InvalidDyck,
    InvalidLabelSequence,
    InvalidPath,
    NotInDomain,
)

PAIR_112_122 = PatternSet.of("112", "122")
PAIR_122_123 = PatternSet.of("122", "123")
PAIR_122_132 = PatternSet.of("122", "132")


def _require_avoids(sigma: MultisetPermutation, patterns: PatternSet) -> None:
    occ = find_occurrence(sigma, patterns)
    if occ is not None:
        # the occurrence is of the first pattern in set order that occurs,
        # and its letters reduce to that pattern
        p = normalize_pattern([sigma.letters[i - 1] for i in occ])
        raise NotInDomain(
            f"{sigma} contains {p} at positions {','.join(map(str, occ))}")


# -- Dyck words ----------------------------------------------------------------

class DyckWord(_Value):
    """A balanced word over {X, Y}: #X = #Y and no prefix has more Y than X."""

    __slots__ = ("letters",)
    letters: str

    def __init__(self, letters: str) -> None:
        depth = 0
        for ch in letters:
            if ch == "X":
                depth += 1
            elif ch == "Y":
                depth -= 1
            else:
                raise InvalidDyck(f"letter {ch!r} is neither X nor Y")
            if depth < 0:
                raise InvalidDyck(f"prefix of {letters} has more Y than X")
        if depth != 0:
            raise InvalidDyck(f"{letters} has unequal numbers of X and Y")
        object.__setattr__(self, "letters", letters)

    @property
    def half_length(self) -> int:
        return len(self.letters) // 2

    def __str__(self) -> str:
        return self.letters


def enumerate_dyck_words(n: int) -> Iterator[DyckWord]:
    """All Dyck words of length 2n, lexicographically with X < Y."""
    word: list[str] = []

    def rec(xs: int, ys: int) -> Iterator[DyckWord]:
        if xs == n and ys == n:
            yield DyckWord("".join(word))
            return
        if xs < n:
            word.append("X")
            yield from rec(xs + 1, ys)
            word.pop()
        if ys < xs:
            word.append("Y")
            yield from rec(xs, ys + 1)
            word.pop()

    yield from rec(0, 0)


def dyck_to_perm(word: DyckWord) -> MultisetPermutation:
    """Replace the X's by n, n-1, ..., 1 and the Y's likewise.

    The result is a permutation on [n]_2 avoiding 112 and 122.
    """
    n = word.half_length
    out = [0] * len(word.letters)
    next_x, next_y = n, n
    for i, ch in enumerate(word.letters):
        if ch == "X":
            out[i] = next_x
            next_x -= 1
        else:
            out[i] = next_y
            next_y -= 1
    sigma = MultisetPermutation.regular(out, n, 2)
    _require_avoids(sigma, PAIR_112_122)
    return sigma


def perm_to_dyck(sigma: MultisetPermutation) -> DyckWord:
    """First occurrences become X, second occurrences become Y."""
    if any(c != 2 for c in sigma.multiplicity):
        raise NotInDomain("the word correspondence needs a regular multiset with m = 2")
    _require_avoids(sigma, PAIR_112_122)
    seen: set[int] = set()
    chars = []
    for v in sigma.letters:
        chars.append("Y" if v in seen else "X")
        seen.add(v)
    # DyckWord.__init__ re-checks prefix balance, which is guaranteed
    # here: a Y before its X would mean a second occurrence preceding a first.
    return DyckWord("".join(chars))


# -- label sequences and lattice paths ------------------------------------------

class LabelSequence(_Value):
    """A branch of the first-ascent generating tree: (a_1, ..., a_{n+1}) with
    a_1 = 1, a_2 = m+1, and m+1 <= a_{i} <= a_{i-1} + m afterwards."""

    __slots__ = ("values", "m")
    values: tuple[int, ...]
    m: int

    def __init__(self, values: tuple[int, ...], m: int) -> None:
        if m < 1:
            raise InvalidLabelSequence("need m >= 1")
        if not values or values[0] != 1:
            raise InvalidLabelSequence("label sequences start with 1")
        for i in range(1, len(values)):
            lo, hi = m + 1, values[i - 1] + m
            if not lo <= values[i] <= hi:
                raise InvalidLabelSequence(
                    f"label {values[i]} at index {i + 1} outside [{lo}, {hi}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    @classmethod
    def parse(cls, text: str, m: int) -> "LabelSequence":
        try:
            values = tuple(int(t) for t in text.replace(",", " ").split())
        except ValueError:
            raise InvalidLabelSequence(f"cannot parse labels from {text!r}") from None
        return cls(values, m)


def perm_to_labels(sigma: MultisetPermutation) -> LabelSequence:
    """First-ascent positions of the restrictions to letters <= k, k = 0..n.

    This reads the tree branch of sigma without building the tree: the
    restriction to [k] is exactly the ancestor of sigma at height k.  The
    labels are read in one pass.  The restriction to [k] falls weakly up to
    its first ascent, and that ascent ends at the first letter <= k that is
    not a weak left-to-right minimum of sigma.  The letters <= k before it
    are minima, whose values fall as their positions rise, so two
    bisections count them.  With no such letter the label is k*m + 1.
    """
    m = sigma.regular_m
    if m is None:
        raise NotInDomain("label sequences are defined on regular multisets")
    _require_avoids(sigma, PAIR_122_123)
    letters = sigma.letters
    length = len(letters)
    # positions and negated values of the minima, both ascending, and for
    # each letter the first position where it is not a minimum (length for
    # none; length also exceeds every letter)
    min_positions: list[int] = []
    min_negated: list[int] = []
    first_other = [length] * (length // m + 1)
    low = length
    for i, v in enumerate(letters):
        if v <= low:
            low = v
            min_positions.append(i)
            min_negated.append(-v)
        elif first_other[v] == length:
            first_other[v] = i
    labels = [1]
    end = length
    for k in range(1, len(first_other)):
        end = min(end, first_other[k])
        if end == length:
            labels.append(k * m + 1)
        else:
            # the letter at end and the minima <= k before it; the minima
            # above k all come before end, as one is below the letter there
            labels.append(1 + bisect_left(min_positions, end) - bisect_left(min_negated, -k))
    return LabelSequence(tuple(labels), m)


def labels_to_perm(seq: LabelSequence) -> MultisetPermutation:
    """Replay the insertion history encoded by a label sequence.

    Step i inserts the new largest letter i: the child label c of a parent
    labelled a fixes the insertion slot j (j = 1 when c = a + m, else
    j = c - m + 1), one copy goes before position j, and the remaining m - 1
    copies go to the front.
    """
    m = seq.m
    letters: list[int] = []
    for i in range(1, seq.n + 1):
        a, c = seq.values[i - 1], seq.values[i]
        j = 1 if c == a + m else c - m + 1
        if not 1 <= j <= max(a, 1):
            raise InvalidLabelSequence(f"label {c} after {a} has no insertion slot")
        letters.insert(j - 1, i)
        letters[:0] = [i] * (m - 1)
    sigma = MultisetPermutation.regular(letters, seq.n, m)
    _require_avoids(sigma, PAIR_122_123)
    return sigma


class LatticePath(_Value):
    """Up/right path from (0,0) to (1 + m*n, n) staying off the line
    x = m*y + 1 everywhere except the final point."""

    __slots__ = ("steps", "m")
    steps: str
    m: int

    def __init__(self, steps: str, m: int) -> None:
        if m < 1:
            raise InvalidPath("need m >= 1")
        ups = steps.count("U")
        rights = steps.count("R")
        if ups + rights != len(steps):
            raise InvalidPath("steps must be a word over {U, R}")
        n = ups
        if rights != 1 + m * n:
            raise InvalidPath(
                f"{ups} up-steps need exactly {1 + m * n} right-steps")
        # read by the runs of right-steps before each up-step: the path
        # starts left of the line x = m*y + 1, and it stays left until the
        # end iff the run before each up-step ends left of the line at that
        # height, as x moves by one and the line only moves right; the first
        # run that reaches the line touches it there
        x = 0
        line = 1
        for y, run in enumerate(steps.split("U")[:-1]):
            x += len(run)
            if x >= line:
                raise InvalidPath(
                    f"path touches the boundary line at ({line},{y}) before the end")
            line += m
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.steps.count("U")

    def __str__(self) -> str:
        return self.steps


def path_to_labels(path: LatticePath) -> LabelSequence:
    """Record m*y - x + 1 at the origin and after every up-step, where x
    adds up the runs of right-steps before the up-steps."""
    m = path.m
    labels = [1]
    x = 0
    top = 1
    for run in path.steps.split("U")[:-1]:
        x += len(run)
        top += m
        labels.append(top - x)
    return LabelSequence(tuple(labels), m)


def labels_to_path(seq: LabelSequence) -> LatticePath:
    """Inverse of path_to_labels: the i-th up-step happens at
    x = m*i + 1 - a_{i+1}."""
    m = seq.m
    n = seq.n
    steps = []
    x = 0
    for i in range(1, n + 1):
        target = m * i + 1 - seq.values[i]
        if target < x:
            raise InvalidLabelSequence(
                f"label {seq.values[i]} would require stepping left")
        steps.append("R" * (target - x))
        steps.append("U")
        x = target
    steps.append("R" * (1 + m * n - x))
    return LatticePath("".join(steps), m)


def enumerate_paths(n: int, m: int) -> Iterator[LatticePath]:
    """All paths from (0,0) to (1 + m*n, n) off the boundary line until the
    end, by depth-first search on an explicit stack, up-steps first."""
    width = 1 + m * n

    def ok(x: int, y: int) -> bool:
        final = (x == width and y == n)
        return final or x != m * y + 1

    stack = [(0, 0, "")]
    while stack:
        x, y, steps = stack.pop()
        if x == width and y == n:
            yield LatticePath(steps, m)
            continue
        # the right-step goes on first, so the up-step's paths come out first
        if x < width and ok(x + 1, y):
            stack.append((x + 1, y, steps + "R"))
        if y < n and ok(x, y + 1):
            stack.append((x, y + 1, steps + "U"))


# -- the minima-fixing map -------------------------------------------------------

def _free_slots(sigma: MultisetPermutation) -> list[int]:
    """The positions that are not left-to-right minima, in ascending order."""
    free = []
    low = len(sigma.letters)
    for i, v in enumerate(sigma.letters, start=1):
        if v <= low:
            low = v
        else:
            free.append(i)
    return free


def _same_multiset(letters: list[int], source: MultisetPermutation) -> MultisetPermutation:
    """The letters as a permutation, checked by one sort and compare to be
    one of the multiset of source; AssertionError if they are not."""
    if sorted(letters) != sorted(source.letters):
        raise AssertionError(f"{format_letters(letters)} is not a permutation "
                             f"of the letters of {source}")
    return MultisetPermutation._known(tuple(letters))


def simion_schmidt_f(sigma: MultisetPermutation) -> MultisetPermutation:
    """Keep the left-to-right minima; refill the other slots left to right
    with the removed letters in decreasing order.

    Maps (122,132)-avoiders to (122,123)-avoiders with the same minima.
    """
    _require_avoids(sigma, PAIR_122_132)
    free = _free_slots(sigma)
    letters = list(sigma.letters)
    removed = sorted((letters[i - 1] for i in free), reverse=True)
    for slot, value in zip(free, removed):
        letters[slot - 1] = value
    out = _same_multiset(letters, sigma)
    _require_avoids(out, PAIR_122_123)
    return out


def simion_schmidt_g(tau: MultisetPermutation) -> MultisetPermutation:
    """Inverse of simion_schmidt_f: refill each free slot with the smallest
    unused letter exceeding the closest minimum to its left."""
    _require_avoids(tau, PAIR_122_123)
    # each free slot with the closest minimum to its left, the running minimum
    slots = []
    low = len(tau.letters)
    for i, v in enumerate(tau.letters):
        if v <= low:
            low = v
        else:
            slots.append((i, low))
    out = list(tau.letters)
    pool = sorted([out[i] for i, _ in slots])
    for i, floor in slots:
        k = bisect_right(pool, floor)
        if k == len(pool):
            raise AssertionError("no letter above the current minimum left")
        out[i] = pool.pop(k)
    res = _same_multiset(out, tau)
    _require_avoids(res, PAIR_122_132)
    return res
