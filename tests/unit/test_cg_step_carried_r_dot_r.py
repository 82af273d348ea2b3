"""cg_step takes its step whatever rT r the state carries.

The step stops on its count, not on a norm of the carried rT r: a
hand-built state carrying a tiny 1e-300 (the true value is 5) still takes
one step, with one product, and reaches n = 1. One carrying NaN takes the
step too, and its direction, scaled by beta = rT r' / NaN, fails the
result check: ValueError, and no state.
"""

import pytest

from heatcg import CgState, DenseMatrix, Vector, cg_step, matvec

A = DenseMatrix.from_rows([[4.0, 1.0], [1.0, 3.0]])
B = Vector([1.0, 2.0])


def state(r_dot_r: float) -> CgState:
    return CgState(phi=Vector([0.0, 0.0]), r=B, d=B, alpha=0.0, beta=0.0, n=0, r_dot_r=r_dot_r)


def counted(calls: list):
    def operator(v: Vector) -> Vector:
        calls.append(v)
        return matvec(A, v)

    return operator


def test_a_tiny_carried_r_dot_r_still_takes_one_step():
    calls = []
    stepped = cg_step(state(1e-300), counted(calls))
    assert stepped.n == 1
    assert len(calls) == 1


def test_a_nan_carried_r_dot_r_raises_value_error_and_returns_no_state():
    calls = []
    with pytest.raises(ValueError, match="^cg_step: the result overflowed to a non-finite value$"):
        cg_step(state(float("nan")), counted(calls))
    assert len(calls) == 1
