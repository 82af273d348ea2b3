"""CgState, cg_init and StencilCoefficients refuse what their own checks name."""

import pytest

from heatcg.cgsolver import CgState, cg_init
from heatcg.heat1d import StencilCoefficients
from heatcg.linalg import DenseMatrix, Orientation, Vector

COLUMN = Vector([1.0, 2.0])
ROW = Vector([1.0, 2.0], Orientation.ROW)
IDENTITY = DenseMatrix(2, 2, [1.0, 0.0, 0.0, 1.0])


def _state(**vectors):
    fields = dict(phi=COLUMN, r=COLUMN, d=COLUMN, alpha=0.0, beta=0.0, n=0, r_dot_r=5.0)
    return CgState(**{**fields, **vectors})


@pytest.mark.parametrize("name", ["r", "d"])
def test_cg_state_rejects_a_row_residual_or_direction(name):
    with pytest.raises(ValueError, match=f"{name} must be a column vector"):
        _state(**{name: ROW})


@pytest.mark.parametrize("name", ["r", "d"])
def test_cg_state_rejects_a_residual_or_direction_that_is_not_a_vector(name):
    with pytest.raises(TypeError, match=f"{name} must be a Vector"):
        _state(**{name: [1.0, 2.0]})


def test_cg_init_rejects_a_row_start():
    with pytest.raises(ValueError, match="x0 must be a column vector"):
        cg_init(IDENTITY, COLUMN, ROW)


def test_cg_init_rejects_a_start_that_is_not_a_vector():
    with pytest.raises(TypeError, match="x0 must be a Vector"):
        cg_init(IDENTITY, COLUMN, [0.0, 0.0])


def test_cg_init_reports_an_overflowing_initial_residual():
    with pytest.raises(ValueError, match="rT r overflowed"):
        cg_init(DenseMatrix(1, 1, [1e308]), Vector([1.0]), Vector([1e308]))


@pytest.mark.parametrize("dx", [-1.0, 0.0])
def test_stencil_coefficients_reject_a_non_positive_dx(dx):
    with pytest.raises(ValueError, match="dx"):
        StencilCoefficients(dx=dx, a_w=1.0, a_e=1.0, a_p=2.0, s_p=0.0, s_u=-0.0)
