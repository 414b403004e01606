"""Closed formulas, recurrences, and exact Binet-form evaluators.

Every counting family for pairs of length-3 patterns on regular multisets
is served through a registry keyed by the symmetry representative of the
pair.  Entries carry a trust level:

  proved-here   hard results; the verification suite asserts oracle agreement
  imported      results quoted from the wider literature; agreement with the
                oracle is reported, never assumed
  report-only   rows whose validity domain is unclear or that verification
                has already caught disagreeing with the oracle

All arithmetic is exact, in Python ints: a sum of fractions is taken over
its common denominator, and the Binet forms are evaluated in Z[sqrt(D)] as
integer pairs (x, y) standing for x + y*sqrt(D).  Floating point never
enters a count.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Mapping, NamedTuple

from .classify import canonical_pair
from .core import PatternSet
from .errors import ArithmeticBug, OutOfDomain, Unsupported

BigCount = int

#: Bump when registry contents change; `catalog()` reports it with each row.
CATALOG_VERSION = "1"


def catalan(n: int) -> BigCount:
    """The n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise OutOfDomain("Catalan numbers need n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def generalized_catalan(n: int, m: int) -> BigCount:
    """C((m+1)n, n) / (mn + 1); reduces to catalan(n) at m = 1."""
    if n < 0 or m < 1:
        raise OutOfDomain("generalized Catalan numbers need n >= 0, m >= 1")
    value, rem = divmod(math.comb((m + 1) * n, n), m * n + 1)
    if rem:
        raise ArithmeticBug("generalized Catalan number was not an integer")
    return value


def rothe(a: int, b: int, n: int) -> BigCount:
    """Rothe number a/(a+bn) * C(a+bn, n); rothe(1, m+1, n) counts the same
    objects as generalized_catalan(n, m)."""
    if a < 1 or b < 1 or n < 0:
        raise OutOfDomain("Rothe numbers need a, b >= 1 and n >= 0")
    value, rem = divmod(a * math.comb(a + b * n, n), a + b * n)
    if rem:
        raise ArithmeticBug("Rothe number was not an integer")
    return value


def stirling_count(n: int, m: int) -> BigCount:
    """Number of permutations on [n]_m with no letter repeated around a
    smaller one (the Stirling permutations): n! * m^n * C(n-1+1/m, n).

    Term by term, n! * m^n * C(n-1+1/m, n) = prod_{k<n} m * (n-1+1/m-k)
    = prod_{j<n} (1 + j*m), so it is computed in integers."""
    if n < 0 or m < 1:
        raise OutOfDomain("need n >= 0 and m >= 1")
    return math.prod(1 + j * m for j in range(n))


# -- the two Fibonacci-like families -------------------------------------------

_REP_211_213 = canonical_pair(("211", "213"))
_REP_122_213 = canonical_pair(("122", "213"))
#: The classes whose counts also satisfy a two-term recurrence with a Binet
#: form, each representative keyed on itself: a lookup returns the one object
#: that _REP_211_213 is, so `is` may test the value found.
RECURRENCE_FAMILIES: Mapping[PatternSet, PatternSet] = {
    rep: rep for rep in (_REP_211_213, _REP_122_213)}


def _family(pair) -> PatternSet:
    """The representative of the Fibonacci-like family that pair belongs to,
    by one dict lookup: of the pair itself when it is a PatternSet (the
    registry's evaluators pass the representative), else of its class's."""
    family = RECURRENCE_FAMILIES.get(pair) if isinstance(pair, PatternSet) else None
    if family is None:
        rep = canonical_pair(pair)
        family = RECURRENCE_FAMILIES.get(rep)
        if family is None:
            raise Unsupported("no two-term recurrence is catalogued for {},{}".format(*rep))
    return family


def recurrence_terms(pair, n: int, m: int) -> Iterator[BigCount]:
    """s_1, ..., s_n of s_k = coeff * s_{k-1} + s_{k-2}, from s_1 = 1 and
    s_2 = m + 1, in one pass; nothing when n = 0.

    coeff is 2 for the (211,213) family and m for the (122,213) family;
    the two coincide at m = 2.
    """
    coeff = 2 if _family(pair) is _REP_211_213 else m
    if m < 2:
        raise OutOfDomain("recurrences are stated for n >= 1, m >= 2")
    prev, cur = 1, m + 1
    for _ in range(n):
        yield prev
        prev, cur = cur, coeff * cur + prev


def recurrence_count(pair, n: int, m: int) -> BigCount:
    """s_n of the family's recurrence: the last of its terms s_1..s_n."""
    if n < 1:
        raise OutOfDomain("recurrences are stated for n >= 1, m >= 2")
    for value in recurrence_terms(pair, n, m):
        pass
    return value


def _quadratic_power(a: int, b: int, d: int, e: int) -> tuple[int, int]:
    """(a + b*sqrt(d))^e as the integer pair (x, y) of x + y*sqrt(d)."""
    x, y = 1, 0
    while e:
        if e & 1:
            x, y = x * a + y * b * d, x * b + y * a
        a, b = a * a + b * b * d, 2 * a * b
        e >>= 1
    return x, y


def explicit_count(pair, n: int, m: int) -> BigCount:
    """Evaluate the closed Binet-style expressions exactly, in Z[sqrt(D)].

    (211,213):  ((2 - m*sqrt(2))(1 - sqrt(2))^(n-1)
                 + (2 + m*sqrt(2))(1 + sqrt(2))^(n-1)) / 4          D = 2
    (122,213):  2^(-n)/sqrt(D) * ((2 + m + sqrt(D))(m + sqrt(D))^(n-1)
                 - (2 + m - sqrt(D))(m - sqrt(D))^(n-1))           D = m^2 + 4

    Each second summand is the conjugate of the first, so the sqrt(D) parts
    cancel by construction and only the final division can leave a
    remainder; a nonzero one raises ArithmeticBug, as it can only come from
    an implementation fault.
    """
    family = _family(pair)
    if n < 1 or m < 2:
        raise OutOfDomain("explicit forms are stated for n >= 1, m >= 2")
    if family is _REP_211_213:
        x, y = _quadratic_power(1, 1, 2, n - 1)
        # (2 + m*sqrt(2))(x + y*sqrt(2)) plus its conjugate
        total, divisor = 2 * (2 * x + 2 * m * y), 4
    else:
        d = m * m + 4
        x, y = _quadratic_power(m, 1, d, n - 1)
        # (2 + m + sqrt(D))(x + y*sqrt(D)) minus its conjugate, over sqrt(D)
        total, divisor = 2 * (x + (2 + m) * y), 2 ** n
    value, rem = divmod(total, divisor)
    if rem:
        raise ArithmeticBug(f"explicit form left remainder {rem}/{divisor}")
    return value


# -- the formula registry -------------------------------------------------------

Evaluator = Callable[[int, int], BigCount]


class FormulaEntry(NamedTuple):
    """One catalogued counting family, keyed by its symmetry representative.

    A row with an evaluator is stated for n >= n_min, m >= 2; a row without
    one has no domain.
    """

    pair: PatternSet
    table_pair: tuple[str, str]
    provenance: str
    trust: str
    evaluator: Evaluator | None
    note: str = ""
    n_min: int = 1

    def is_servable(self) -> bool:
        return self.evaluator is not None

    def validity(self, n: int, m: int) -> bool:
        return self.is_servable() and n >= self.n_min and m >= 2

    @property
    def name(self) -> str:
        return f"({','.join(self.table_pair)})"

    @property
    def validity_text(self) -> str:
        return f"n >= {self.n_min}, m >= 2" if self.is_servable() else "-"


def _binomial_ratio_sum(n: int, m: int) -> BigCount:
    """sum over j of C(n, j) * C(n + (m-1)*j - 1, n - j) / (n + 1 - j), summed
    in integers over the common denominator lcm(1, ..., n + 1)."""
    lcm = math.lcm(*range(1, n + 2))
    total = sum(math.comb(n, j) * math.comb(n + (m - 1) * j - 1, n - j)
                * (lcm // (n + 1 - j)) for j in range(n + 1))
    value, rem = divmod(total, lcm)
    if rem:
        raise ArithmeticBug("series coefficient was not an integer")
    return value


def _pair_112_122(n: int, m: int) -> BigCount:
    return catalan(n) if m == 2 else 2 ** (n - 1)


def _pair_123_321(n: int, m: int) -> BigCount:
    # n = 1, 2 added here: the quoted case split starts at n = 3, and the
    # two small cases are forced (everything avoids both patterns).
    if n == 1:
        return 1
    if n == 2:
        return math.comb(2 * m, m)
    if n == 3:
        return (m + 1) ** 2 * catalan(m)
    if n == 4:
        return 2 * (m + 1) * catalan(m)
    return 0


def _entry(p1: str, p2: str, provenance: str, trust: str,
           evaluator: Evaluator | None, note: str = "", n_min: int = 1) -> FormulaEntry:
    return FormulaEntry(canonical_pair((p1, p2)), (p1, p2), provenance, trust,
                        evaluator, note, n_min)


_ENTRIES = [
    _entry("112", "122", "binary insertion choice (m >= 3); generating tree and "
           "word bijection (m = 2)", "proved-here", _pair_112_122),
    _entry("122", "123", "generating tree with first-ascent labels; lattice-path "
           "bijection", "proved-here", lambda n, m: generalized_catalan(n, m)),
    _entry("122", "132", "left-to-right-minima bijection onto the (122,123) "
           "avoiders", "proved-here", lambda n, m: generalized_catalan(n, m)),
    _entry("211", "213", "generating tree with descent-offset labels; "
           "Pell-like recurrence", "proved-here",
           lambda n, m: explicit_count(_REP_211_213, n, m)),
    _entry("122", "213", "generating tree with first-descent labels; "
           "Fibonacci-like recurrence", "proved-here",
           lambda n, m: explicit_count(_REP_122_213, n, m)),
    _entry("122", "312", "direct structure: forced prefix block plus one free "
           "insertion", "proved-here", lambda n, m: (n - 1) * m + 1),
    _entry("122", "321", "forced decreasing blocks contain 321 from n = 3 on",
           "proved-here", lambda n, m: 1 if n == 1 else (m + 1 if n == 2 else 0)),
    # multiset-multiset rows quoted from the compositions-and-words literature
    _entry("212", "221", "unique avoider: increasing blocks", "imported",
           lambda n, m: 1),
    _entry("212", "121", "block permutations only", "imported",
           lambda n, m: math.factorial(n)),
    _entry("122", "121", "Catalan family independent of m", "imported",
           lambda n, m: catalan(n)),
    _entry("122", "211", "the two patterns are jointly unavoidable",
           "imported", lambda n, m: 0,
           note="the quoted row is stated without a domain; at n = 1 the "
                "single constant word is an avoider"),
    _entry("122", "221", "case split on m", "imported",
           lambda n, m: 1 if m == 2 else 0,
           note="at n = 1 the single constant word avoids both patterns "
                "for every m"),
    # mixed rows quoted from the Stirling-permutation literature
    _entry("212", "123", "quoted series-expansion sum", "imported",
           _binomial_ratio_sum),
    _entry("212", "132", "quoted as the generalized Catalan family",
           "report-only", lambda n, m: generalized_catalan(n, m),
           note="verification finds disagreement with the oracle from n = 3 "
                "on; the generalized Catalan counts instead match the "
                "(212,213) class empirically"),
    # ordinary-ordinary rows; validity ranges were not quoted, so these are
    # reported against the oracle rather than asserted
    _entry("123", "231", "binomial plus correction term", "report-only",
           lambda n, m: math.comb(n * m, m) + math.comb(n - 1, 2) * m * m),
    _entry("123", "321", "finite case split (everything contains one of the "
           "patterns from n = 5)", "report-only", _pair_123_321,
           note="values for n = 1, 2 added here and oracle-checked; the "
                "quoted split starts at n = 3"),
    _entry("132", "231", "geometric family", "report-only",
           lambda n, m: catalan(m) * (m + 1) ** (n - 2),
           note="verification finds the quoted exponent off by one: the "
                "oracle matches catalan(m)*(m+1)**(n-1) for n >= 2",
           n_min=2),
    _entry("132", "312", "telescoping binomial sums", "report-only",
           lambda n, m: (sum(math.comb(m * n, m * i) for i in range(1, n))
                         - sum(math.comb(m * n - m, m * i) for i in range(1, n - 1)))),
    # recursion-only families: catalogued so the table is complete, but not
    # servable as closed formulas
    _entry("123", "132", "recursion only in the quoted source", "imported", None,
           note="no closed formula; use the enumeration oracle"),
    _entry("132", "213", "recursion only in the quoted source", "imported", None,
           note="no closed formula; use the enumeration oracle"),
    # the symmetry class missing from the quoted 20-class table
    _entry("212", "213", "uncatalogued symmetry class", "report-only", None,
           note="no quoted row covers this class (the class list that "
                "claims 20 classes omits it; there are 21); its counts "
                "match the generalized Catalan numbers empirically"),
]

# pairs {111, x}: the quoted shortcut says catalan(n) at m = 2 (because 111
# is then unavoidable -- the inference is wrong, see the note) and 0 for
# m >= 3 (right for n >= 1: the letter 1 alone realizes 111).
_NOTE_111 = ("verification refutes the m = 2 claim for n >= 2: avoiding 111 "
             "is automatic there, so the pair count equals the single-pattern "
             "count, which exceeds catalan(n)")

for _other in ("123", "132", "112", "121"):
    _ENTRIES.append(_entry(
        "111", _other, "shortcut for pairs containing the triple repeat",
        "report-only", lambda n, m: catalan(n) if m == 2 else 0, note=_NOTE_111))

REGISTRY: Mapping[PatternSet, FormulaEntry] = {e.pair: e for e in _ENTRIES}

assert len(REGISTRY) == len(_ENTRIES), "registry keys must be distinct"


# -- ordinary permutations (m = 1) ----------------------------------------------

_M1_POWERS = {canonical_pair(pair) for pair in (("123", "132"), ("132", "213"),
                                                 ("132", "231"), ("132", "312"))}
_M1_BINOM = canonical_pair(("123", "231"))
_M1_CROSS = canonical_pair(("123", "321"))


def _ordinary_pair_count(rep: PatternSet, n: int) -> BigCount:
    """Classical counts for ordinary permutations avoiding two length-3
    patterns, by canonical pair; oracle-verified in the test suite."""
    if rep in _M1_POWERS:
        return 2 ** (n - 1)
    if rep == _M1_BINOM:
        return math.comb(n, 2) + 1
    if rep == _M1_CROSS:
        return (1, 1, 2, 4, 4)[n] if n <= 4 else 0
    raise Unsupported("no classical pair count catalogued for {},{}".format(*rep))


def _m1_count(rep: PatternSet, n: int) -> BigCount:
    # Patterns with repeated letters are never contained in an ordinary
    # permutation, so they drop out of the pair.
    ordinary = tuple(p for p in rep if p.is_ordinary)
    if len(ordinary) == 0:
        return math.factorial(n)
    if len(ordinary) == 2:
        return _ordinary_pair_count(rep, n)
    if len(ordinary[0]) == 3:
        return catalan(n)  # all six single length-3 patterns count the same
    raise Unsupported(
        f"no m = 1 count catalogued for the ordinary pattern {ordinary[0]} alone")


# -- dispatcher -------------------------------------------------------------------

def _serve(pair, n: int, m: int, proved_only: bool) -> BigCount:
    if n < 0 or m < 1:
        raise OutOfDomain("need n >= 0 and m >= 1")
    rep = canonical_pair(pair)
    if n == 0:
        return 1
    if m == 1:
        return _m1_count(rep, n)
    entry = REGISTRY.get(rep)
    if entry is None:
        raise Unsupported("no catalogued formula for the class of ({},{})".format(*rep))
    if entry.evaluator is None:
        raise Unsupported(f"{entry.name}: {entry.note}")
    if not entry.validity(n, m):
        raise OutOfDomain(
            f"{entry.name} is catalogued for {entry.validity_text}, not (n={n}, m={m})")
    if proved_only and entry.trust != "proved-here":
        raise Unsupported(
            f"{entry.name} is {entry.trust}, not proved here; 'msetperm table' lists "
            f"its quoted values with their trust, and --method oracle counts it")
    return entry.evaluator(n, m)


def closed_count(pair, n: int, m: int) -> BigCount:
    """Evaluate the catalogued formula for an unordered pattern pair, whatever
    the row's trust: the evaluator of quoted formulas.

    The pair is reduced to its symmetry representative first, so any member
    of a catalogued class is served.  n = 0 always counts 1 (the empty
    permutation avoids everything); m = 1 is answered from the ordinary-
    permutation catalog.
    """
    return _serve(pair, n, m, proved_only=False)


def proved_count(pair, n: int, m: int) -> BigCount:
    """The one trust gate: closed_count for n = 0, the m = 1 catalog and
    proved-here rows.  Any other servable row raises Unsupported inside its
    domain, after the same servability and domain checks as closed_count."""
    return _serve(pair, n, m, proved_only=True)


def catalog() -> list[dict]:
    """Machine-readable formula catalog (one record per registry entry)."""
    rows = []
    for entry in sorted(REGISTRY.values(), key=lambda e: e.pair):
        rows.append({
            "pair": [str(p) for p in entry.pair],
            "table_pair": list(entry.table_pair),
            "provenance": entry.provenance,
            "trust": entry.trust,
            "validity": entry.validity_text,
            "servable": entry.is_servable(),
            "note": entry.note,
            "catalog_version": CATALOG_VERSION,
        })
    return rows
