"""Exact enumeration of pattern-avoiding permutations on regular multisets.

The package bundles a brute-force oracle, a catalog of closed counting
formulas and recurrences, generating-tree counting, the constructive
bijections behind the Catalan-type results, symmetry classification of
pattern pairs, and growth probes, all over exact integer arithmetic.

Importing the package loads none of its modules: the module that defines
a public name is imported the first time that name is read.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each module of the public surface, with the names it defines
_EXPORTS = {
    "bijections": ("DyckWord", "LabelSequence", "LatticePath", "dyck_to_perm",
                   "labels_to_path", "labels_to_perm", "path_to_labels", "perm_to_dyck",
                   "perm_to_labels", "simion_schmidt_f", "simion_schmidt_g"),
    "classify": ("PatternPairClass", "canonical_pair", "classify_all_length3",
                 "empirical_wilf_classes", "symmetry_closure"),
    "core": ("MultisetPermutation", "Pattern", "PatternSet", "contains",
             "find_occurrence", "left_to_right_minima", "normalize_pattern"),
    "enumeration": ("count_avoiders", "generate_all", "list_avoiders",
                    "word_counts_by_length"),
    "errors": (),
    "formulas": ("catalan", "catalog", "closed_count", "explicit_count",
                 "generalized_catalan", "proved_count", "recurrence_count", "rothe",
                 "stirling_count"),
    "gentree": ("SuccessionRule", "builtin_rule", "count_at_height"),
    "growth": ("growth_table",),
}

#: public name -> its home module; a module's own name stands for the module
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f".{module}", __name__)
    # Not stored here: each read follows the home module's binding, so a
    # function replaced there and put back is replaced and put back here too.
    return home if name == module else getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
