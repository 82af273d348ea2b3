"""CG hands out plain floats: no array the loop reuses reaches a state or a result.

The loop passes alpha and beta to numpy as 0-d arrays that it overwrites at
every step. A state or result holding one of them would change under its
owner when a later step or solve runs.
"""

import pytest

from heatcg.cgsolver import CgConfig, cg_init, cg_solve, cg_step
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import Vector, crs_matvec
from testutil import assert_same_bits

SYSTEM = assemble(HeatProblem(number_of_cells=16, boundary_left=2.5))
OPERATORS = {
    "dense": SYSTEM.matrix,
    "crs": SYSTEM.crs,
    "callable": lambda v: crs_matvec(SYSTEM.crs, v),
}
SCALARS = ("alpha", "beta", "r_dot_r")


@pytest.mark.parametrize("kind", OPERATORS)
def test_step_and_solve_scalars_are_exactly_float(kind):
    operator = OPERATORS[kind]
    state = cg_init(operator, SYSTEM.rhs, Vector([0.0] * 16))
    for _ in range(3):
        state = cg_step(state, operator)
        assert [type(getattr(state, name)) for name in SCALARS] == [float] * 3
    assert type(cg_solve(operator, SYSTEM.rhs, CgConfig()).residual_norm) is float


@pytest.mark.parametrize("kind", OPERATORS)
def test_a_state_keeps_its_scalars_while_later_steps_and_solves_run(kind):
    operator = OPERATORS[kind]
    state = cg_step(cg_init(operator, SYSTEM.rhs, Vector([0.0] * 16)), operator)
    kept = {name: float(getattr(state, name)) for name in SCALARS}
    later = state
    for _ in range(5):
        later = cg_step(later, operator)
    cg_solve(operator, SYSTEM.rhs, CgConfig())
    for name in SCALARS:
        assert_same_bits(getattr(state, name), kept[name], name)
        assert getattr(later, name) != kept[name], f"{name} did not move, so nothing was tested"
