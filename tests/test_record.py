"""The value classes on the record base: equality, hashing, repr, frozen
fields, constructors, and an import that generates no code."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import schubres
from schubres.poly import FactoredPoly
from schubres.record import Record
from schubres.rootsys import LieType, root_system
from schubres.schubert import Chain, GkmFailure, GkmReport, Subword
from schubres.typea import EquivalenceReport
from schubres.verify import SuiteResult
from schubres.weyl import identity, simple_reflection

RS = root_system("A", 2)
E, S1 = identity(RS), simple_reflection(RS, 1)

#: Each frozen record class with the keyword arguments of one value.
FROZEN = [
    (LieType, dict(family="B", rank=3)),
    (FactoredPoly, dict(scalar=Fraction(1, 2), factors=((0, 1), (1, 0)), rank=2)),
    (Chain, dict(elements=(E, S1), betas=((1, 0),))),
    (Subword, dict(word=(1, 2, 1), mask=(0, 1, 0))),
    (GkmFailure, dict(bottom=E, top=S1, label=(1, 0))),
    (GkmReport, dict(edges_checked=9, failures=())),
    (
        EquivalenceReport,
        dict(
            u=(2, 1, 3), v=(3, 2, 1), word=(2, 1, 2), chain_count=1,
            subword_count=1, duplicate_images=(), images_outside=(),
            missed_subwords=(), contribution_mismatches=(),
        ),
    ),
]
IDS = [cls.__name__ for cls, _ in FROZEN]


@pytest.mark.parametrize("cls,fields", FROZEN, ids=IDS)
class TestFrozenRecord:
    def test_keyword_and_positional_constructors_agree(self, cls, fields):
        by_name = cls(**fields)
        assert by_name == cls(*fields.values())
        assert tuple(getattr(by_name, name) for name in fields) == tuple(fields.values())

    def test_equal_fields_give_equal_values_and_hashes(self, cls, fields):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert len({a, b}) == 1

    def test_another_class_with_the_same_fields_is_not_equal(self, cls, fields):
        twin = type(cls.__name__, (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
        assert cls(**fields) != twin(**fields)
        assert cls(**fields).__eq__(twin(**fields)) is NotImplemented
        assert cls(**fields) != tuple(fields.values())

    def test_assignment_and_deletion_raise(self, cls, fields):
        value = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = None
        assert getattr(value, name) == fields[name]

    def test_copies_rebuild_through_the_constructor(self, cls, fields):
        value = cls(**fields)
        assert copy.copy(value) == value
        if cls not in (Chain, GkmFailure):  # elements belong to their system
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value


def test_reprs_are_the_dataclass_text():
    assert repr(LieType("B", 3)) == "LieType(family='B', rank=3)"
    assert repr(Subword((1, 2), (0, 1))) == "Subword(word=(1, 2), mask=(0, 1))"
    assert repr(GkmFailure(E, S1, (1, 0))) == (
        "GkmFailure(bottom=<A2 e>, top=<A2 1>, label=(1, 0))"
    )
    assert repr(GkmReport(9, ())) == "GkmReport(edges_checked=9, failures=())"
    assert repr(EquivalenceReport(*FROZEN[-1][1].values())) == (
        "EquivalenceReport(u=(2, 1, 3), v=(3, 2, 1), word=(2, 1, 2), "
        "chain_count=1, subword_count=1, duplicate_images=(), "
        "images_outside=(), missed_subwords=(), contribution_mismatches=())"
    )
    assert repr(SuiteResult("x", cases=0)) == "SuiteResult(suite='x', cases=0, failures=[])"
    # The classes with a repr of their own keep it.
    assert repr(Chain((E, S1), ((1, 0),))) == "Chain(<A2 e> -(1, 0)-> <A2 1>)"
    assert repr(FactoredPoly(3, [(1, 0)], 2)) == "FactoredPoly(3 * (a1))"


def test_constructors_validate_their_fields():
    with pytest.raises(ValueError, match="unsupported family"):
        LieType(family="D", rank=4)
    with pytest.raises(ValueError, match="one more element than edges"):
        Chain(elements=(E,), betas=((1, 0),))
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        Subword(word=(1,), mask=(2,))
    with pytest.raises(ValueError, match="zero linear form"):
        FactoredPoly(scalar=1, factors=[(0, 0)], rank=2)
    # Fields are normalized as they are stored.
    poly = FactoredPoly(2, [[1, 0], (0, 1)], 2)
    assert (poly.scalar, poly.factors) == (Fraction(2), ((0, 1), (1, 0)))
    assert type(poly.scalar) is Fraction
    assert Chain([E, S1], [[1, 0]]).betas == ((1, 0),)


class TestSuiteResult:
    def test_defaults_and_keywords(self):
        result = SuiteResult("x", cases=0)
        assert (result.suite, result.cases, result.failures) == ("x", 0, [])
        # Each result gets a failure list of its own.
        assert SuiteResult("x").failures is not SuiteResult("x").failures
        assert SuiteResult(suite="x", cases=2, failures=["f"]).to_json() == {
            "schema": "v1", "suite": "x", "cases": 2, "failures": ["f"],
        }

    def test_mutable_with_value_equality_and_no_hash(self):
        result = SuiteResult("x")
        result.check(True, lambda: "unused")
        result.check(False, lambda: "failed")
        assert result == SuiteResult("x", 2, ["failed"])
        assert result != SuiteResult("y", 2, ["failed"])
        result.cases = 7
        assert result.cases == 7
        with pytest.raises(TypeError):
            hash(result)
        with pytest.raises(AttributeError):
            result.other = None


def test_every_value_class_is_a_slotted_record():
    for value in [cls(**fields) for cls, fields in FROZEN] + [SuiteResult("x")]:
        assert isinstance(value, Record)
        assert not hasattr(value, "__dict__")


def test_importing_the_cli_generates_no_code():
    # A fresh interpreter without site imports: whatever loads
    # dataclasses or inspect then is the package's own import.
    src = str(Path(schubres.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, schubres.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('schubres')))\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert "'schubres.record'" in out[0] and "'schubres.verify'" in out[0]
    assert out[1] == "False False"
