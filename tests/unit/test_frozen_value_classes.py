"""Each value class behaves as its @dataclass(frozen=True) twin does.

heatcg's value classes are built by _checks.frozen, which installs shared
methods instead of the ones dataclass compiles per class. Each test builds
the twin dataclass would make of a class (the same name, annotations,
defaults and __post_init__) and compares the two: repr, equality, hash,
fields, replace, asdict, __match_args__, the dataclass params, the
signature, copy and pickle round trips, the frozen errors, the TypeError
of a bad call, and a frozen dataclass subclass.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from heatcg.cgsolver import CgConfig, CgResult, CgState
from heatcg.heat1d import (AssembledSystem, HeatProblem, HeatSolution, StencilCoefficients,
                           assemble, stencil_coefficients)
from heatcg.linalg import Vector
from heatcg.numkit import ComplexNumber, FloatCompareSpec, Precision
from heatcg.testpyramid import Layer, PyramidReport, TestRecord, TestStatus

_V, _W = Vector([1.0, -2.0]), Vector([0.5, 0.25])
_RESULT = CgResult(_V, 3, 1e-12, True)
_SYSTEM = assemble(HeatProblem(number_of_cells=3))
_STENCIL = stencil_coefficients(HeatProblem(gamma=2.0))

# each class with the arguments of one instance and a replace() change
CASES = {
    "FloatCompareSpec": (FloatCompareSpec, (4.0, Precision.SINGLE), {"tolerance_multiplier": 2.0}),
    "ComplexNumber": (ComplexNumber, (1, -2.5), {"imaginary_part": 3}),
    "CgConfig": (CgConfig, (50, 1e-8, _W), {"tolerance": 1e-6}),
    "CgState": (CgState, (_V, _W, _W, 0.5, 0.25, 2, 1.25), {"n": 3}),
    "CgResult": (CgResult, (_V, 3, 1e-12, True, False), {"breakdown": True}),
    "HeatProblem": (HeatProblem, (2.0, 3.0, 8, -1.0, 4.0), {"number_of_cells": 9}),
    "StencilCoefficients": (StencilCoefficients, tuple(vars(_STENCIL).values()), {"s_p": -1.0,
                                                                                  "s_u": 1.0}),
    "AssembledSystem": (AssembledSystem, (_SYSTEM.crs, _SYSTEM.rhs, _SYSTEM.cell_centers),
                        {"rhs": _SYSTEM.cell_centers}),
    "HeatSolution": (HeatSolution, (_V, _RESULT, 1e-9), {"l2_error_vs_analytic": 2e-9}),
    "TestRecord": (TestRecord, (Layer.UNIT, "a test", 1.5, TestStatus.OK), {"name": "b"}),
    "PyramidReport": (PyramidReport, ({Layer.UNIT: 2}, {TestStatus.OK: 2}, True, ("a",)),
                      {"pyramid_ok": False}),
}


def twin(cls):
    """The class @dataclass(frozen=True) makes of cls's name, fields and __post_init__."""
    namespace = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
                 "__annotations__": dict(cls.__annotations__)}
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            namespace[field.name] = field.default
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def pair(name):
    cls, args, changes = CASES[name]
    return cls, twin(cls), args, changes


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", CASES)
def test_repr_equality_and_hash_match_the_twin(name):
    cls, same, args, changes = pair(name)
    value, other = cls(*args), dataclasses.replace(cls(*args), **changes)
    assert repr(value) == repr(same(*args))
    assert (value == cls(*args), value == other, value != other) == (True, False, True)
    assert (same(*args) == same(*args), value == same(*args)) == (True, False)
    assert outcome(hash, value) == outcome(hash, same(*args))


@pytest.mark.parametrize("name", CASES)
def test_fields_replace_asdict_and_signature_match_the_twin(name):
    cls, same, args, changes = pair(name)
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == \
        [(f.name, f.type, f.default) for f in dataclasses.fields(same)]
    assert repr(dataclasses.replace(cls(*args), **changes)) == \
        repr(dataclasses.replace(same(*args), **changes))
    assert repr(dataclasses.asdict(cls(*args))) == repr(dataclasses.asdict(same(*args)))
    assert cls.__match_args__ == same.__match_args__
    params = cls.__dataclass_params__
    assert (params.init, params.repr, params.eq, params.frozen) == (True, True, True, True)
    assert str(inspect.signature(cls)) == str(inspect.signature(same))


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_round_trips_keep_the_value(name):
    cls, same, args, _ = pair(name)
    value = cls(*args)
    for copied in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls
        assert repr(copied) == repr(value)
        assert copied == value
    assert copy.copy(same(*args)) == same(*args)


@pytest.mark.parametrize("name", CASES)
def test_assignment_and_deletion_raise_the_twins_frozen_errors(name):
    cls, same, args, _ = pair(name)
    value, double = cls(*args), same(*args)
    for field in [*cls.__match_args__, "not_a_field"]:
        for act in (lambda obj: setattr(obj, field, 0), lambda obj: delattr(obj, field)):
            got = outcome(act, value)
            assert got[0] is dataclasses.FrozenInstanceError
            assert got == outcome(act, double)
    assert repr(value) == repr(cls(*args))


@pytest.mark.parametrize("name", CASES)
def test_a_bad_call_is_a_type_error_naming_the_class_and_the_argument(name):
    cls, same, args, _ = pair(name)
    first = cls.__match_args__[0]
    calls = {  # a bad call and what its message must name
        "too many": ((*args, 0), {}, f"{len(args) + 2} were given"),
        "unknown": (args, {"bogus": 1}, "'bogus'"),
        "twice": (args, {first: args[0]}, repr(first)),
    }
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    if required:
        calls["missing"] = (args[:len(required) - 1], {}, repr(required[-1]))
    for kind, (call_args, call_kwargs, argument) in calls.items():
        got = outcome(cls, *call_args, **call_kwargs)
        expected = outcome(same, *call_args, **call_kwargs)
        assert got[0] is expected[0] is TypeError, kind
        assert f"{cls.__qualname__}.__init__()" in got[1] and argument in got[1], got
        if kind in ("unknown", "twice"):
            assert got == expected


@pytest.mark.parametrize("name", CASES)
def test_a_frozen_dataclass_may_subclass_the_class(name):
    cls, _, args, _ = pair(name)
    sub = dataclasses.dataclass(frozen=True)(type("Sub", (cls,), {
        "__annotations__": {"extra": int}, "extra": 7, "__module__": __name__}))
    value = sub(*args)
    assert (value.extra, cls.__match_args__ + ("extra",)) == (7, sub.__match_args__)
    assert outcome(setattr, value, "extra", 1)[0] is dataclasses.FrozenInstanceError
