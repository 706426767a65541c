"""The library's value classes: frozen, slotted, compared by value.

Every value class is a `dataclass(frozen=True, slots=True)`.  For each one
this checks that fields cannot be set and no attribute can be added, that equal values are
`==` and hash equal (where the class is hashable), and that `to_json` /
`from_json` round-trip (where the class has them).  Source scans keep the
hand-rolled idiom confined to the two classes that need it, and the trusted
constructor to the shared term module: one maker per class, bound at import.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest

from hopfgal import _terms
from hopfgal.cyclotomic import CycloElt, FieldDescriptor
from hopfgal.gp_enum import FiniteGroup, Perm, census_instances, new_perm
from hopfgal.groupring import GroupRingElt, new_groupring
from hopfgal.hopfgalois import HopfElt, RadicalElt, e_basis, new_hopf, new_radical
from hopfgal.profinite import CoherentH, PadicTrunc, generator_sequence
from hopfgal.smash_end import QMatrix, SmashElt, new_qmatrix, new_smash, to_end_matrix
from hopfgal.variants import TowerAut

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfgal"


# name -> (build one value, build an equal value another way)
VALUES = {
    "GroupRingElt": (lambda: e_basis(3, 2, 4),
                     lambda: GroupRingElt(FieldDescriptor(3, 2),
                                          enumerate(e_basis(3, 2, 4).coeffs))),
    "HopfElt": (lambda: HopfElt(3, 1, [1, Fraction(1, 2), 0]),
                lambda: HopfElt(3, 1, ["1", "1/2", Fraction(0)])),
    "RadicalElt": (lambda: RadicalElt(3, 1, 2, [0, 1, 0]),
                   lambda: RadicalElt.w_power(3, 1, Fraction(2), 1)),
    "SmashElt": (lambda: SmashElt.basis(3, 1, 2, 1, 2),
                 lambda: SmashElt(3, 1, Fraction(2), {(4, 5): 1, (0, 0): 0})),
    "QMatrix": (lambda: to_end_matrix(SmashElt.basis(3, 1, 2, 1, 2)),
                lambda: QMatrix(3, 1, 2, [[0, 0, 2], [0, 0, 0], [0, 0, 0]])),
    "FiniteGroup": (lambda: FiniteGroup([Perm((1, 2, 0))]),
                    lambda: FiniteGroup([Perm((2, 0, 1))])),
    "Perm": (lambda: Perm((1, 2, 0)), lambda: Perm((1, 2, 0)).inverse().inverse()),
    "TowerAut": (lambda: TowerAut(3, 2, 1, 1), lambda: TowerAut(3, 2, 10, 4)),
    "CoherentH": (lambda: generator_sequence(3, 2),
                  lambda: CoherentH.from_json(generator_sequence(3, 2).to_json())),
    "PadicTrunc": (lambda: PadicTrunc.from_int(3, 3, 5),
                   lambda: PadicTrunc(3, (2, 5, 32))),
    "CensusInstance": (lambda: census_instances()[0],
                       lambda: census_instances()[0]),
}

UNHASHABLE = {"SmashElt"}                   # its terms are a dict

_F32 = FieldDescriptor(3, 2)

# class name -> (its bound maker, a value from the public constructor)
MAKERS = {
    "GroupRingElt": (new_groupring, lambda: GroupRingElt(
        _F32, [(7, CycloElt.zeta_power(_F32, 5)),
               (2, CycloElt.rational(_F32, Fraction(-3, 4)))])),
    "HopfElt": (new_hopf, lambda: HopfElt(3, 1, [0, "2/3", -5])),
    "RadicalElt": (new_radical,
                   lambda: RadicalElt(3, 1, Fraction(2, 7), [1, 0, "-1/9"])),
    "SmashElt": (new_smash, lambda: SmashElt(3, 1, 5, {(1, 2): 3, (4, 0): "1/2"})),
    "QMatrix": (new_qmatrix,
                lambda: QMatrix(3, 1, 2, [[0, 1, 0], [0, 0, "3/2"], [7, 0, 0]])),
    "Perm": (new_perm, lambda: Perm((2, 0, 3, 1))),
}

# name -> (to JSON, back from JSON)
ROUND_TRIPS = {
    "HopfElt": (lambda x: x.to_json(), lambda d: HopfElt.from_json(3, 1, d)),
    "QMatrix": (lambda x: x.to_json(), QMatrix.from_json),
    "CoherentH": (lambda x: x.to_json(), CoherentH.from_json),
}

@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_is_frozen_and_slotted(name):
    x = VALUES[name][0]()
    params = type(x).__dataclass_params__
    assert params.frozen and "__slots__" in vars(type(x))
    field = dataclasses.fields(x)[0].name
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(x, field))
    # a name that is not a field has no slot; CPython 3.11's frozen
    # __setattr__ on a slotted class reports that as TypeError
    with pytest.raises((AttributeError, TypeError)):
        x.extra = 1
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_are_equal_and_hash_equal(name):
    build, build_other = VALUES[name]
    x, y = build(), build_other()
    assert x is not y and x == y and not (x != y)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_json_round_trip(name):
    x = VALUES[name][0]()
    dump, load = ROUND_TRIPS[name]
    y = load(dump(x))
    assert y == x and dump(y) == dump(x)


def _class_defs():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                yield node


def _defined_names(node: ast.ClassDef) -> set[str]:
    names = set()
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_bound_maker_builds_the_public_constructors_value(name):
    # the maker takes the stored fields in declaration order, unchecked
    make, build = MAKERS[name]
    x = build()
    y = make(*(getattr(x, f.name) for f in dataclasses.fields(x)))
    assert type(y) is type(x) and y is not x and y == x
    assert all(getattr(y, f.name) == getattr(x, f.name) for f in dataclasses.fields(x))
    if name not in UNHASHABLE:
        assert hash(y) == hash(x)


def test_each_sparse_value_class_binds_one_maker_at_import():
    bound = [m.groups() for path in sorted(SRC.glob("*.py"))
             for m in re.finditer(r"^(\w+) = maker\((\w+)\)$", path.read_text(), re.M)]
    assert sorted(cls for _, cls in bound) == sorted(MAKERS)
    assert len({name for name, _ in bound}) == len(bound)
    # no second constructor path beside the makers
    assert not hasattr(_terms, "new")


def test_only_the_interned_and_hot_path_classes_define_setattr():
    hand_rolled = sorted(node.name for node in _class_defs()
                         if "__setattr__" in _defined_names(node))
    assert hand_rolled == ["CycloElt", "FieldDescriptor"]


def test_only_the_term_module_and_the_interned_field_call_object_new():
    # the trusted constructor of each sparse value class is its `_terms.maker`;
    # cyclotomic keeps its own for FieldDescriptor and `_make`
    calling = {path.name: path.read_text().count("object.__new__")
               for path in sorted(SRC.glob("*.py"))}
    assert {name: k for name, k in calling.items() if k} == \
        {"_terms.py": 1, "cyclotomic.py": 2}


def test_only_the_twisted_group_ring_builder_calls_fixed_space():
    # every fixed ring and fixed field is one `groupring.twisted_kernel` call
    calling = {path.name: path.read_text().count("fixed_space(")
               for path in sorted(SRC.glob("*.py"))}
    assert {name: k for name, k in calling.items() if k} == \
        {"cyclotomic.py": 1, "groupring.py": 1}
    assert "def fixed_space(" in (SRC / "cyclotomic.py").read_text()
    builder = next(node for node in ast.parse((SRC / "groupring.py").read_text()).body
                   if isinstance(node, ast.FunctionDef) and node.name == "twisted_kernel")
    assert "fixed_space(" in ast.unparse(builder)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_classes_leave_slots_and_comparison_to_the_dataclass(name):
    node = next(node for node in _class_defs() if node.name == name)
    written = _defined_names(node) & {"__slots__", "__eq__", "__hash__"}
    # FiniteGroup compares its element set, not its generators
    assert written == ({"__eq__", "__hash__"} if name == "FiniteGroup" else set())
    decorator = ast.unparse(node.decorator_list[0])
    assert decorator.startswith("dataclass(")
    assert "frozen=True" in decorator and "slots=True" in decorator
