"""cg_step on a state whose residual is exactly zero names the vanished residual.

A converged state has r = 0, and CG's d is then 0 too, so dT A d is zero
even for a symmetric positive definite operator. The step checks the
carried rT r first, before the product, so the message does not blame
the operator, and no product is spent on the step.
"""

import pytest

from heatcg import CgBreakdownError, DenseMatrix, Vector, cg_init, cg_step, matvec

A = DenseMatrix.from_rows([[4.0, 1.0], [1.0, 3.0]])
B = Vector([1.0, 2.0])
EXACT = Vector([1.0 / 11.0, 7.0 / 11.0])  # A EXACT == B with no rounding left in r


def test_a_step_from_the_exact_solution_names_the_vanished_residual():
    state = cg_init(A, B, EXACT)
    assert state.r.components == (0.0, 0.0)
    with pytest.raises(CgBreakdownError, match="rT r is exactly zero at iteration 0; residual already vanished"):
        cg_step(state, A)


def test_a_third_step_on_a_2x2_system_names_the_vanished_residual():
    state = cg_step(cg_step(cg_init(A, B, Vector([0.0, 0.0])), A), A)
    assert state.r.components == (0.0, 0.0)
    assert state.d.components == (0.0, 0.0)
    with pytest.raises(CgBreakdownError, match="rT r is exactly zero at iteration 2; residual already vanished"):
        cg_step(state, A)


def test_a_step_on_a_vanished_residual_runs_no_product():
    calls = []

    def operator(v: Vector) -> Vector:
        calls.append(v)
        return matvec(A, v)

    state = cg_init(operator, B, EXACT)
    assert len(calls) == 1  # r = b - A x0
    with pytest.raises(CgBreakdownError, match="rT r is exactly zero"):
        cg_step(state, operator)
    assert len(calls) == 1
