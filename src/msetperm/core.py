"""Domain types and pattern containment for permutations of multisets.

A permutation of the multiset {1^mu(1), ..., n^mu(n)} is a sequence in which
the letter i appears exactly mu(i) times.  A pattern is a word in canonical
reduced form (value set {1..k}); containment means an order-isomorphic
subsequence where equal pattern letters must map to equal letters of the
host permutation.

Patterns of length 2 and 3 are decided by one scan with enumeration's O(1)
mask terms (_BLOCKS), and a whole set of them by one scan that ORs in every
pattern's term.  The scan runs a finite automaton per tuple of terms, built
lazily from the terms one step at a time, shared by every scan with those
terms and bounded to _SCAN_STEPS stored steps.  A raw sequence is first
mapped to its letters' ranks, so the masks are as wide as the alphabet,
whatever the letters.  Other patterns and hits take backtracking.

Positions are 1-based throughout, matching the usual combinatorial
conventions for positional statistics.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InvalidPattern,
    InvalidPermutation,
    MsetPermError,
    UnsupportedSymmetry,
)

Letters = tuple[int, ...]


def _parse_letters(text: str, error: type[MsetPermError]) -> Letters:
    """Parse a one-line encoding: digits for alphabets up to 9, otherwise
    space- or comma-separated integers, and () for the empty sequence, as
    format_letters writes them.  A token that is not an integer
    raises error; the caller's type checks the values."""
    text = text.strip()
    if text == "()":
        return ()
    tokens = text.replace(",", " ").split() if " " in text or "," in text else text
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise error(f"cannot parse letters from {text!r}") from None


def format_letters(letters: Sequence[int]) -> str:
    """Inverse of the one-line encoding: compact digits when possible."""
    if not letters:
        return "()"
    if max(letters) <= 9:
        return "".join(str(v) for v in letters)
    return " ".join(str(v) for v in letters)


class _Value:
    """Base of the package's immutable value types.  A subclass lists its
    fields in __slots__ and sets them in __init__ through object.__setattr__
    after its checks; that is all of its value semantics.  A slot whose name
    starts with _ is not a field but a value derived from the fields, set
    on first use.  The base reads the field tuple in __slots__ order and
    compares (only within one class) and hashes by it, gives the
    dataclass-style repr, refuses assignment and deletion with
    AttributeError, and pickles and copies an instance by calling the class
    on its fields, so that the checks run again."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        # one C call per read; attrgetter of a single name returns the bare
        # value, so that case is wrapped into its 1-tuple
        get = operator.attrgetter(*fields)
        cls._astuple = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._astuple


class MultisetPermutation(_Value):
    """A permutation of {1^mu(1), ..., n^mu(n)}, stored as its letter sequence:
    n and mu are read off the letters, so every value 1..max must occur."""

    __slots__ = ("letters",)
    letters: Letters

    def __init__(self, letters: Iterable[int]) -> None:
        # a tuple, so that equal letters give equal, hashable values
        letters = tuple(letters)
        # one set, and min and max over its distinct letters: time and
        # memory linear in the letters
        present = set(letters)
        if present and min(present) < 1:
            raise InvalidPermutation("letters must be positive integers")
        n = max(present, default=0)
        if len(present) != n:
            gaps = (i for i in range(1, n + 1) if i not in present)
            missing = [str(i) for i in itertools.islice(gaps, 11)]
            if len(missing) > 10:
                missing[10] = "..."
            raise InvalidPermutation(
                f"letters [{', '.join(missing)}] missing from alphabet [1..{n}]")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _known(cls, letters: Letters) -> "MultisetPermutation":
        """The letters, a tuple the caller has checked to be a permutation
        of its multiset, with no check run."""
        sigma = object.__new__(cls)
        object.__setattr__(sigma, "letters", letters)
        return sigma

    @classmethod
    def regular(cls, letters: Iterable[int], n: int, m: int) -> "MultisetPermutation":
        """The letters as a permutation of [n]_m; InvalidPermutation unless
        each of 1..n occurs exactly m times.  One sort and one compare with
        the sorted letters of [n]_m accept it.  Otherwise the constructor
        checks that every letter up to the largest occurs, and then one sort
        and two slices say why it fails: the sorted letters end in n, and
        every block of m begins and ends with the same letter."""
        letters = tuple(letters)
        # with m > 0, the length check bounds n by the number of letters, so
        # the list of [n]_m is never built longer than the letters
        if m > 0 and len(letters) == n * m and sorted(letters) == sorted([*range(1, n + 1)] * m):
            return cls._known(letters)
        sigma = cls(letters)
        s = sorted(letters)
        if len(s) != n * m or s and (s[-1] != n or s[::m] != s[m - 1::m]):
            raise InvalidPermutation(f"{sigma} is not a permutation of [{n}]_{m}")
        return sigma

    @classmethod
    def parse(cls, text: str) -> "MultisetPermutation":
        return cls(_parse_letters(text, InvalidPermutation))

    @property
    def alphabet_size(self) -> int:
        return max(self.letters, default=0)

    @property
    def multiplicity(self) -> tuple[int, ...]:
        counts = [0] * (self.alphabet_size + 1)
        for v in self.letters:
            counts[v] += 1
        return tuple(counts[1:])

    @property
    def regular_m(self) -> int | None:
        """The common multiplicity m when the multiset is regular, else None.

        The empty permutation counts as regular (m defaults to 1).  As in
        regular, one sort and two slices decide it: the largest letter n
        divides the length, and each block of m = length / n sorted letters
        begins and ends with the same letter.
        """
        s = sorted(self.letters)
        if not s:
            return 1
        m, rest = divmod(len(s), s[-1])
        return m if not rest and s[::m] == s[m - 1::m] else None

    def reverse(self) -> "MultisetPermutation":
        return MultisetPermutation._known(self.letters[::-1])

    def complement(self) -> "MultisetPermutation":
        """The letters under i -> n-i+1, which keeps the multiset fixed only
        when it is regular, so it is refused otherwise."""
        if self.regular_m is None:
            raise UnsupportedSymmetry("complement needs a regular multiset")
        n = self.alphabet_size
        return MultisetPermutation._known(tuple(n - v + 1 for v in self.letters))

    def __str__(self) -> str:
        return format_letters(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


class Pattern(_Value):
    """A forbidden pattern in canonical reduced form (value set {1..k})."""

    __slots__ = ("letters",)
    letters: Letters

    def __init__(self, letters: Letters) -> None:
        if not letters:
            raise InvalidPattern("patterns must be nonempty")
        values = set(letters)
        if min(values) < 1 or len(values) != max(values):
            raise InvalidPattern(
                f"{format_letters(letters)} is not reduced; use normalize_pattern"
            )
        object.__setattr__(self, "letters", letters)

    @property
    def is_ordinary(self) -> bool:
        """True when all letters are distinct (no forced repetitions)."""
        return len(set(self.letters)) == len(self.letters)

    def reverse(self) -> "Pattern":
        return Pattern(self.letters[::-1])

    def complement(self) -> "Pattern":
        k = max(self.letters)
        return Pattern(tuple(k - v + 1 for v in self.letters))

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        return normalize_pattern(_parse_letters(text, InvalidPattern))

    def __str__(self) -> str:
        return format_letters(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __lt__(self, other: "Pattern") -> bool:
        return self.letters < other.letters


def normalize_pattern(raw: Sequence[int]) -> Pattern:
    """Reduce a word to its canonical order-isomorphic form.

    Values are replaced by their ranks, preserving both order and equalities:
    275 -> 132, 4664 -> 1221.  Idempotent on canonical input.
    """
    if not raw:
        raise InvalidPattern("patterns must be nonempty")
    if any(v <= 0 for v in raw):
        raise InvalidPattern("pattern letters must be positive integers")
    rank = {v: i + 1 for i, v in enumerate(sorted(set(raw)))}
    return Pattern(tuple(rank[v] for v in raw))


def as_pattern(spec: Pattern | str | Sequence[int]) -> Pattern:
    """The package's one reading of a pattern: a Pattern as given, a string
    through Pattern.parse, letters through normalize_pattern (275 -> 132)."""
    if isinstance(spec, Pattern):
        return spec
    if isinstance(spec, str):
        return Pattern.parse(spec)
    return normalize_pattern(tuple(spec))


class PatternSet(_Value):
    """A deduplicated set of patterns in canonical sort order.  _set_terms
    stores the patterns' _BLOCKS terms in _terms on first use."""

    __slots__ = ("patterns", "_terms")
    patterns: tuple[Pattern, ...]

    def __init__(self, patterns: Iterable[Pattern]) -> None:
        object.__setattr__(self, "patterns", tuple(sorted(set(patterns))))

    @classmethod
    def of(cls, *specs: Pattern | str | Sequence[int]) -> "PatternSet":
        return cls(tuple([as_pattern(s) for s in specs]))

    def reverse(self) -> "PatternSet":
        return PatternSet(tuple(p.reverse() for p in self.patterns))

    def complement(self) -> "PatternSet":
        return PatternSet(tuple(p.complement() for p in self.patterns))

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, p: Pattern) -> bool:
        return p in self.patterns

    def __lt__(self, other: "PatternSet") -> bool:
        return self.patterns < other.patterns

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.patterns) + "}"


def as_pattern_set(patterns: PatternSet | Iterable) -> PatternSet:
    """A PatternSet as given, else the set of patterns read by as_pattern.
    A hashable tuple of specs, such as ("122", "213"), is read once and then
    served from a bounded cache, so that a sweep over many cells reads each
    pair once; other specs, such as lists of letters, are read on each call.
    An invalid spec raises on every call: the cache stores no errors."""
    if isinstance(patterns, PatternSet):
        return patterns
    if isinstance(patterns, tuple):
        try:
            hash(patterns)
        except TypeError:
            pass
        else:
            return _read_pattern_set(patterns)
    return PatternSet.of(*patterns)


@functools.lru_cache(maxsize=256)
def _read_pattern_set(specs: tuple) -> PatternSet:
    return PatternSet.of(*specs)


# -- containment ---------------------------------------------------------------
#
# find_occurrence's scan and the enumeration transfer read two masks over the
# letters (bit v stands for the letter v): present, the letters seen, and
# blocked, the letters whose appending would complete a pattern.  Blocked
# only grows: a new occurrence that ends in the letter c and uses the letter
# just appended has that letter second to last, so what the append adds to
# the blocked set depends only on that letter (bit), the letters seen below
# and above it (lower, upper) and whether it was seen before (again; a third
# copy adds what the second did).  Each entry below maps those to the letters
# added for one canonical pattern of length 2 or 3.  -(bit << 1) holds every
# letter above the appended one, and bit - 1 every letter below.

#: A _BLOCKS term: (bit, lower, upper, again) -> the letters it blocks.
Term = Callable[[int, int, int, int], int]

_BLOCKS: dict[tuple[int, ...], Term] = {
    (1, 2, 3): lambda bit, lower, upper, again: -(bit << 1) if lower else 0,
    (2, 1, 3): lambda bit, lower, upper, again: -((upper & -upper) << 1),
    (2, 3, 1): lambda bit, lower, upper, again:
        lower and (1 << lower.bit_length() - 1) - 1,
    (3, 2, 1): lambda bit, lower, upper, again: bit - 1 if upper else 0,
    (1, 3, 2): lambda bit, lower, upper, again: (bit - 1) & -((lower & -lower) << 1),
    (3, 1, 2): lambda bit, lower, upper, again:
        upper and ((1 << upper.bit_length() - 1) - 1) & -(bit << 1),
    (1, 1, 2): lambda bit, lower, upper, again: -(bit << 1) if again else 0,
    (2, 2, 1): lambda bit, lower, upper, again: bit - 1 if again else 0,
    (1, 1, 1): lambda bit, lower, upper, again: bit if again else 0,
    (1, 2, 1): lambda bit, lower, upper, again: lower,
    (2, 1, 1): lambda bit, lower, upper, again: bit if upper else 0,
    (1, 2, 2): lambda bit, lower, upper, again: bit if lower else 0,
    (2, 1, 2): lambda bit, lower, upper, again: upper,
    (1, 2): lambda bit, lower, upper, again: -(bit << 1),
    (2, 1): lambda bit, lower, upper, again: bit - 1,
    (1, 1): lambda bit, lower, upper, again: bit,
}


def _set_terms(patterns: PatternSet) -> tuple[Term | None, ...]:
    """The patterns' _BLOCKS terms in set order, None for a pattern without
    one: looked up the first time they are asked for and stored in the set's
    _terms slot, so the containment scan and the transfers look them up once
    per set."""
    try:
        return patterns._terms
    except AttributeError:
        terms = tuple([_BLOCKS.get(p.letters) for p in patterns.patterns])
        object.__setattr__(patterns, "_terms", terms)
        return terms


def _occurrence_general(letters: Letters, pat: Letters) -> tuple[int, ...] | None:
    # Backtracking over positions; depth d tries to place pattern letter d.
    l, k = len(letters), len(pat)

    def extend(chosen: list[int], start: int) -> tuple[int, ...] | None:
        d = len(chosen)
        if d == k:
            return tuple(chosen)
        for i in range(start, l - (k - d) + 1):
            v = letters[i]
            ok = True
            for a, pos in enumerate(chosen):
                w = letters[pos]
                if (w < v) != (pat[a] < pat[d]) or (w > v) != (pat[a] > pat[d]):
                    ok = False
                    break
            if ok:
                chosen.append(i)
                hit = extend(chosen, i + 1)
                if hit is not None:
                    return hit
                chosen.pop()
        return None

    return extend([], 0)


def _ranks(letters: Sequence[int]) -> Letters:
    """Each letter replaced by its rank among the distinct letters (1-based):
    order and equalities, all that containment reads, are kept."""
    rank = {v: i for i, v in enumerate(sorted(set(letters)), start=1)}
    return tuple(rank[v] for v in letters)


# The scan over the two masks is a finite automaton for each tuple of terms:
# its state is (present, blocked), a letter that arrives blocked is a hit,
# and any other letter leads to the state with its terms ORed in.  The terms
# read nothing but bit, lower, upper and again, which follow from present
# and the letter, so the state decides every later step.

#: The most steps a scan table stores, so it holds at most _SCAN_STEPS + 1
#: states; a step taken once the table is full is computed and not stored.
#: A stored step and its new state take at most about 450 bytes on CPython
#: 3.11, so a table holds at most about 15 MB.  The (122,123) table that
#: checks every avoider of length <= 12 settles at 12,196 states and 27,949
#: steps (4.8 MB); with a smaller cap most of those scans would compute
#: their steps, which is slower.
_SCAN_STEPS = 1 << 15


def _advance(present: int, blocked: int, v: int,
             terms: tuple[Term, ...]) -> tuple[int, int] | None:
    """The masks after appending the letter v (>= 1), or None when v
    arrives blocked."""
    bit = 1 << v
    if blocked & bit:
        return None
    lower, upper, again = present & (bit - 1), present & -(bit << 1), present & bit
    for term in terms:
        blocked |= term(bit, lower, upper, again)
    return present | bit, blocked


class _Hit(dict):
    """The sink a blocked letter leads to: every letter leads back to it."""

    __slots__ = ()

    def __missing__(self, v: int) -> "_Hit":
        self[v] = self
        return self


#: The target of a step whose letter arrives blocked.
_HIT = _Hit()


class _State(dict):
    """A state of a scan automaton: its masks (present, blocked) and its
    table, and as the dict, its stored steps from the letter appended to the
    next state or _HIT.  A step not yet stored is computed by __missing__
    and stored while the table has fewer than _SCAN_STEPS steps; past that
    it is returned unstored.  A step is a pure function of the state and
    the letter, so a stored step always equals the computed one, and
    concurrent scans need no lock: a race can only store a step twice or
    store a step or two past the cap."""

    __slots__ = ("masks", "table")

    def __init__(self, masks: tuple[int, int], table: "_ScanTable") -> None:
        # the dict starts empty without dict.__init__
        self.masks = masks
        self.table = table

    def __missing__(self, v: int) -> dict:
        table = self.table
        full = table.steps >= _SCAN_STEPS
        masks = _advance(*self.masks, v, table.terms)
        if masks is None:
            target: dict = _HIT
        else:
            target = table.states.get(masks)
            if target is None:
                target = _State(masks, table)
                if not full:
                    # one setdefault, so that concurrent scans store a state once
                    target = table.states.setdefault(masks, target)
        if not full:
            self[v] = target
            table.steps += 1
        return target


class _ScanTable:
    """The scan automaton of one tuple of _BLOCKS terms: its states by
    masks, from the root, and the number of steps they store."""

    def __init__(self, terms: tuple[Term, ...]) -> None:
        self.terms = terms
        self.root = _State((0, 0), self)
        self.states = {self.root.masks: self.root}
        self.steps = 0


_TABLES: dict[tuple[Term, ...], _ScanTable] = {}


def _scan(letters: Letters, terms: tuple[Term, ...]) -> bool:
    """True iff some letter arrives blocked, i.e. the letters (all >= 1)
    contain a pattern whose _BLOCKS term is among the terms given: one
    lookup per letter, from the root of the terms' automaton, in one C
    loop."""
    table = _TABLES.get(terms) or _TABLES.setdefault(terms, _ScanTable(terms))
    return functools.reduce(operator.getitem, letters, table.root) is _HIT


def find_occurrence(sigma: MultisetPermutation | Sequence[int],
                    pi: Pattern | PatternSet) -> tuple[int, ...] | None:
    """1-based positions of the lexicographically first occurrence of pi in
    sigma, or None.  For a PatternSet, the first pattern in set order that
    occurs gives the occurrence.

    When every pattern has a _BLOCKS entry, one run of the set's scan
    automaton decides the whole set, and an avoider costs nothing more.
    Otherwise, or on a hit, each pattern in turn takes its own automaton (if
    it has an entry) and then the backtracking search, which locates the
    occurrence.  An automaton is built lazily, a step the first time a scan
    takes it, is shared by every scan with the same terms, and stores at
    most _SCAN_STEPS steps.  A PatternSet's terms are looked up once per
    set (_set_terms).  The masks are as wide as the largest letter, so a
    raw sequence is scanned by its letters' ranks."""
    if isinstance(pi, PatternSet):
        patterns = pi.patterns
        blocks = _set_terms(pi)
    else:
        patterns = (pi,)
        blocks = (_BLOCKS.get(pi.letters),)
    if isinstance(sigma, MultisetPermutation):
        letters = sigma.letters
    else:
        letters = _ranks(sigma) if any(blocks) else tuple(sigma)
    if blocks and None not in blocks and not _scan(letters, blocks):
        return None
    for p, block in zip(patterns, blocks):
        if block is not None and len(blocks) > 1 and not _scan(letters, (block,)):
            continue
        hit = _occurrence_general(letters, p.letters)
        if hit is not None:
            return tuple(i + 1 for i in hit)
    return None


def contains(sigma: MultisetPermutation | Sequence[int], pi: Pattern | PatternSet) -> bool:
    """True iff sigma has a subsequence order-isomorphic to pi (equalities
    in the pattern must be realized by equal letters).  pi may also be a
    PatternSet, which find_occurrence takes too: then True iff sigma
    contains one of its patterns."""
    return find_occurrence(sigma, pi) is not None


# -- positional statistics ---------------------------------------------------

def first_repetition(letters: Sequence[int]) -> int:
    """Least position whose letter already occurred, else length+1 (1 if empty)."""
    seen: set[int] = set()
    for i, v in enumerate(letters, start=1):
        if v in seen:
            return i
        seen.add(v)
    return len(letters) + 1


def first_ascent(letters: Sequence[int]) -> int:
    """Least i with letters[i-1] < letters[i] (strict), else length+1 (1 if empty)."""
    for i in range(1, len(letters)):
        if letters[i - 1] < letters[i]:
            return i + 1
    return len(letters) + 1


def first_descent(letters: Sequence[int]) -> int:
    """Least i with letters[i-1] > letters[i] (strict), else length+1 (1 if empty)."""
    for i in range(1, len(letters)):
        if letters[i - 1] > letters[i]:
            return i + 1
    return len(letters) + 1


def left_to_right_minima(sigma: MultisetPermutation | Sequence[int]) -> tuple[int, ...]:
    """Ascending positions i with sigma_i <= sigma_j for every j < i.

    Ties count, so a repeat of the current minimum is again a minimum.
    """
    letters = sigma.letters if isinstance(sigma, MultisetPermutation) else tuple(sigma)
    out = []
    best: int | None = None
    for i, v in enumerate(letters, start=1):
        if best is None or v <= best:
            out.append(i)
            best = v
    return tuple(out)


# -- canonical length-3 universe ---------------------------------------------

ORDINARY_LENGTH3 = tuple(
    normalize_pattern(p) for p in itertools.permutations((1, 2, 3))
)

MULTISET_LENGTH3 = tuple(
    Pattern(p) for p in ((1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1))
)

TRIPLE_REPEAT = Pattern((1, 1, 1))

#: The twelve canonical length-3 patterns over at least two values.
LENGTH3_PATTERNS = tuple(sorted(ORDINARY_LENGTH3 + MULTISET_LENGTH3))
