"""A breakdown after a completed step: cg_solve reports it, cg_step raises it.

A = [[1, -1], [-1, 1]] is singular and positive semidefinite, and b =
(2, 1). The first step is an ordinary one: phi = (10, 5), r = (-3, 6),
and d = (15, 15) lies in A's null space, so the second step's dT A d is
exactly zero. cg_solve stops after that one step, with the
step's iterate and residual norm, not converged and flagged as a
breakdown; cg_step on the step's state raises CgBreakdownError with the
dT A d message and iteration 1. The matrix is given dense, compressed and
as a callable.

A breakdown is one that the loop finds itself: a CgBreakdownError raised
by a callable operator, here on its second call (the first step's
product), reaches the caller of cg_solve like any other exception.
"""

import pytest

from heatcg import CgBreakdownError, CgConfig, Vector, cg_init, cg_solve, cg_step
from heatcg.linalg import DenseMatrix, dense_to_crs, matvec
from testutil import assert_components_bitwise

A = DenseMatrix.from_rows([[1.0, -1.0], [-1.0, 1.0]])
B = Vector([2.0, 1.0])
OPERATORS = {"dense": A, "crs": dense_to_crs(A), "callable": lambda v: matvec(A, v)}
MESSAGE = "^dT A d is exactly zero at iteration 1; operator is degenerate or not positive definite$"


@pytest.mark.parametrize("kind", OPERATORS)
def test_a_solve_stops_with_its_one_step_and_flags_the_breakdown(kind):
    operator = OPERATORS[kind]
    result = cg_solve(operator, B, CgConfig())
    step = cg_step(cg_init(operator, B, Vector([0.0, 0.0])), operator)
    assert (result.iterations, result.breakdown, result.converged) == (1, True, False)
    assert result.residual_norm == 6.708203932499369
    assert_components_bitwise(result.solution.components, step.phi.components, "solution")


@pytest.mark.parametrize("kind", OPERATORS)
def test_a_step_after_it_raises_the_dT_A_d_breakdown(kind):
    operator = OPERATORS[kind]
    state = cg_step(cg_init(operator, B, Vector([0.0, 0.0])), operator)
    with pytest.raises(CgBreakdownError, match=MESSAGE):
        cg_step(state, operator)


def test_a_callable_that_raises_cg_breakdown_error_reaches_the_caller():
    calls = []

    def operator(v: Vector) -> Vector:
        calls.append(v)
        if len(calls) == 2:
            raise CgBreakdownError("inner solve broke down")
        return matvec(A, v)

    with pytest.raises(CgBreakdownError, match="^inner solve broke down$"):
        cg_solve(operator, B, CgConfig())
    assert len(calls) == 2
