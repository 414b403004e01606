"""Exact enumeration of pattern-avoiding permutations on regular multisets.

The package bundles a brute-force oracle, a catalog of closed counting
formulas and recurrences, generating-tree counting, the constructive
bijections behind the Catalan-type results, symmetry classification of
pattern pairs, and growth probes, all over exact integer arithmetic.
"""

from .core import (
    MultisetPermutation,
    Pattern,
    PatternSet,
    contains,
    find_occurrence,
    left_to_right_minima,
    normalize_pattern,
)
from .enumeration import (
    count_avoiders,
    generate_all,
    list_avoiders,
)
from .formulas import (
    catalan,
    catalog,
    closed_count,
    explicit_count,
    generalized_catalan,
    proved_count,
    recurrence_count,
    rothe,
    stirling_count,
)
from .gentree import (
    SuccessionRule,
    builtin_rule,
    count_at_height,
)
from .bijections import (
    DyckWord,
    LabelSequence,
    LatticePath,
    dyck_to_perm,
    labels_to_path,
    labels_to_perm,
    path_to_labels,
    perm_to_dyck,
    perm_to_labels,
    simion_schmidt_f,
    simion_schmidt_g,
)
from .classify import (
    PatternPairClass,
    canonical_pair,
    classify_all_length3,
    empirical_wilf_classes,
    symmetry_closure,
)
from .growth import (
    growth_table,
    word_counts_by_length,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
