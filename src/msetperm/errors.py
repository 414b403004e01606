"""Exception types shared across the package."""


class MsetPermError(Exception):
    """Base class for all package errors."""


class InvalidPattern(MsetPermError):
    """Raised for malformed pattern input (empty, non-positive letters, ...)."""


class InvalidPermutation(MsetPermError):
    """Raised for letter sequences that are not multiset permutations."""


class UnsupportedSymmetry(MsetPermError):
    """Complement requested for a permutation on a non-regular multiset."""


class BudgetExceeded(MsetPermError):
    """Raised when one of enumeration's length or word budgets is exceeded."""


class Unsupported(MsetPermError):
    """No catalogued formula, rule or method serves the request."""


class OutOfDomain(MsetPermError):
    """Formula exists but the requested (n, m) lies outside its validity domain."""


class ArithmeticBug(MsetPermError):
    """Exact arithmetic produced an impossible value; indicates an internal fault."""


class InvalidDyck(MsetPermError):
    """String is not a balanced Dyck word."""


class InvalidPath(MsetPermError):
    """Lattice path is malformed or touches the forbidden line early."""


class InvalidLabelSequence(MsetPermError):
    """Integer sequence violates the label-sequence bounds."""


class NotInDomain(MsetPermError):
    """Bijection input does not avoid the defining pattern pair."""
