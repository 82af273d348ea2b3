"""A callable operator must return a column Vector as long as its input."""

import pytest

from heatcg.cgsolver import CgConfig, CgState, cg_init, cg_solve, cg_step
from heatcg.linalg import Orientation, Vector


def returns_five(v):
    return 5


def returns_a_row(v):
    return Vector(v.components, Orientation.ROW)


def returns_one_component(v):
    return Vector([1.0])


B = Vector([1.0, 2.0])
STATE = CgState(phi=Vector([0.0, 0.0]), r=B, d=B, alpha=0.0, beta=0.0, n=0)
CALLS = {
    "cg_solve": lambda op: cg_solve(op, B, CgConfig()),
    "cg_init": lambda op: cg_init(op, B, Vector([0.0, 0.0])),
    "cg_step": lambda op: cg_step(STATE, op),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_a_result_that_is_not_a_vector_is_a_type_error(call):
    with pytest.raises(TypeError, match="operator <function returns_five .*int, not a Vector"):
        CALLS[call](returns_five)


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("operator", [returns_a_row, returns_one_component])
def test_a_row_or_a_wrong_length_is_a_value_error(call, operator):
    with pytest.raises(ValueError, match=f"operator <function {operator.__name__} "):
        CALLS[call](operator)


def test_a_one_component_system_names_the_operator():
    with pytest.raises(TypeError, match="operator"):
        cg_solve(lambda v: 5, Vector([1.0]), CgConfig())


def test_every_result_is_checked_not_only_the_first():
    calls = []

    def shrinks_after_init(v):
        calls.append(v)
        return v if len(calls) == 1 else Vector([1.0])

    with pytest.raises(ValueError, match="length 1, not a column of length 2"):
        cg_solve(shrinks_after_init, B, CgConfig())
    assert len(calls) == 2
