"""Value semantics of the package's immutable types and records: equality
and hashing over the fields, the dataclass-style repr, keyword
construction, refused assignment, pickling and copying, and the
constructors' checks."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import msetperm

from msetperm.bijections import DyckWord, LabelSequence, LatticePath
from msetperm.classify import PatternPairClass
from msetperm.core import MultisetPermutation, Pattern, PatternSet, _Value
from msetperm.errors import (
    InvalidDyck,
    InvalidLabelSequence,
    InvalidPath,
    InvalidPattern,
    InvalidPermutation,
)
from msetperm.formulas import FormulaEntry
from msetperm.gentree import SuccessionRule
from msetperm.growth import GrowthRow
from msetperm.verify import AgreementRow, CheckResult

P123, P132 = Pattern((1, 2, 3)), Pattern((1, 3, 2))

#: class, the fields of one instance, those of an unequal one, its repr, and
#: tuples of constructor arguments that each raise the given error with the
#: message
CASES = [
    (MultisetPermutation, {"letters": (2, 1, 1, 2)}, {"letters": (1, 1, 2, 2)},
     "MultisetPermutation(letters=(2, 1, 1, 2))",
     [(((0, 1),), InvalidPermutation, "letters must be positive integers"),
      (((1, 3),), InvalidPermutation, "letters [2] missing from alphabet [1..3]")]),
    (Pattern, {"letters": (1, 3, 2)}, {"letters": (1, 2, 3)},
     "Pattern(letters=(1, 3, 2))",
     [(((),), InvalidPattern, "patterns must be nonempty"),
      (((1, 3),), InvalidPattern, "13 is not reduced; use normalize_pattern")]),
    (PatternSet, {"patterns": (P123, P132)}, {"patterns": (P123,)},
     "PatternSet(patterns=(Pattern(letters=(1, 2, 3)), Pattern(letters=(1, 3, 2))))", []),
    (DyckWord, {"letters": "XYXY"}, {"letters": "XXYY"},
     "DyckWord(letters='XYXY')",
     [(("XXY",), InvalidDyck, "XXY has unequal numbers of X and Y"),
      (("YX",), InvalidDyck, "prefix of YX has more Y than X"),
      (("XZ",), InvalidDyck, "letter 'Z' is neither X nor Y")]),
    (LabelSequence, {"values": (1, 3, 4), "m": 2}, {"values": (1, 3, 5), "m": 2},
     "LabelSequence(values=(1, 3, 4), m=2)",
     [(((1, 3), 0), InvalidLabelSequence, "need m >= 1"),
      (((2,), 2), InvalidLabelSequence, "label sequences start with 1"),
      (((1, 4), 2), InvalidLabelSequence, "label 4 at index 2 outside [3, 3]")]),
    (LatticePath, {"steps": "URRR", "m": 2}, {"steps": "URR", "m": 1},
     "LatticePath(steps='URRR', m=2)",
     [(("RUR", 0), InvalidPath, "need m >= 1"),
      (("RUX", 1), InvalidPath, "steps must be a word over {U, R}"),
      (("RU", 1), InvalidPath, "1 up-steps need exactly 2 right-steps"),
      (("RUR", 1), InvalidPath, "path touches the boundary line at (1,0) before the end")]),
    (PatternPairClass, {"members": ((P123, P132),)}, {"members": ((P132, P123),)},
     "PatternPairClass(members=((Pattern(letters=(1, 2, 3)), Pattern(letters=(1, 3, 2))),))",
     [((((P123, P132),) * 3,), AssertionError, "")]),
    (FormulaEntry,
     {"pair": (P123, P132), "table_pair": ("123", "132"), "provenance": "quoted",
      "trust": "imported", "evaluator": None},
     {"pair": (P123, P132), "table_pair": ("123", "132"), "provenance": "quoted",
      "trust": "imported", "evaluator": None, "n_min": 2},
     "FormulaEntry(pair=(Pattern(letters=(1, 2, 3)), Pattern(letters=(1, 3, 2))), "
     "table_pair=('123', '132'), provenance='quoted', trust='imported', evaluator=None, "
     "note='', n_min=1)", []),
    (SuccessionRule,
     {"name": "r", "m": 2, "root": 1, "children": tuple, "fast_step": None, "grammar": "root 1"},
     {"name": "r", "m": 3, "root": 1, "children": tuple, "fast_step": None, "grammar": "root 1"},
     "SuccessionRule(name='r', m=2, root=1, children=<class 'tuple'>, fast_step=None, "
     "grammar='root 1')", []),
    (GrowthRow, {"n": 2, "m": 2, "count": 6, "ratio": 1.5},
     {"n": 2, "m": 2, "count": 6, "ratio": 1.25},
     "GrowthRow(n=2, m=2, count=6, ratio=1.5)", []),
    (CheckResult, {"suite": "s", "name": "n", "ok": True},
     {"suite": "s", "name": "n", "ok": False},
     "CheckResult(suite='s', name='n', ok=True, detail='', hard=True)", []),
    (AgreementRow,
     {"table_pair": ("123", "132"), "trust": "imported", "n": 2, "m": 2, "formula": None,
      "oracle": 4},
     {"table_pair": ("123", "132"), "trust": "imported", "n": 2, "m": 2, "formula": 4,
      "oracle": 4},
     "AgreementRow(table_pair=('123', '132'), trust='imported', n=2, m=2, formula=None, "
     "oracle=4)", []),
]


def _fields(x) -> tuple:
    names = x._fields
    return tuple(getattr(x, name) for name in names)


@pytest.mark.parametrize("cls, fields, other, text, invalid", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, fields, other, text, invalid):
    x, same, different = cls(**fields), cls(*fields.values()), cls(**other)
    assert x == same and not x != same
    assert x != different and not x == different
    assert x != object()
    assert hash(x) == hash(same) == hash(_fields(x))
    assert _fields(x) == tuple(fields.values()) + _fields(x)[len(fields):]
    assert repr(x) == text
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(different, name))
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert x == same and repr(x) == text
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(twin) is cls and twin == x and hash(twin) == hash(x)
        assert repr(twin) == text
    for args, error, message in invalid:
        with pytest.raises(error) as exc:
            cls(*args)
        assert str(exc.value) == message


def test_a_value_with_one_field_changed_is_unequal():
    # m is forced by the other field except on the shortest inputs, so CASES
    # cannot pair two instances that differ in m alone
    for a, b in ((LabelSequence((1,), 2), LabelSequence((1,), 3)),
                 (LatticePath("R", 1), LatticePath("R", 2))):
        assert a != b and hash(a) != hash(b)


def test_values_of_different_classes_with_equal_fields_are_unequal():
    a, b = MultisetPermutation((1, 2)), Pattern((1, 2))
    assert a != b and b != a and not a == b and not b == a


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


def test_only_the_base_defines_equality_and_hash():
    for module in pkgutil.iter_modules(msetperm.__path__):
        importlib.import_module(f"msetperm.{module.name}")
    values = _subclasses(_Value)
    assert {case[0] for case in CASES[:7]} <= values
    assert [cls for cls in values if {"__eq__", "__hash__"} & cls.__dict__.keys()] == []



#: the package's own value classes, whose hash the base stores on first use
VALUES = [case for case in CASES if issubclass(case[0], _Value)]


@pytest.mark.parametrize("cls, fields", [case[:2] for case in VALUES],
                         ids=[case[0].__name__ for case in VALUES])
def test_the_hash_is_computed_once_and_a_value_equals_itself_unread(cls, fields, monkeypatch):
    # record each read of the field tuple
    reads, get = [], cls._astuple.fget
    monkeypatch.setattr(cls, "_astuple", property(lambda x: reads.append(x) or get(x)))
    x, same = cls(**fields), cls(**fields)
    assert x == x and not x != x and reads == []
    assert hash(x) == hash(x) == hash(_fields(x)) and reads == [x]
    # a distinct equal value still compares by its fields and hashes the same
    assert x == same and x is not same and hash(same) == hash(x)
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        del reads[:]
        assert hash(twin) == hash(x) and reads == [twin]
