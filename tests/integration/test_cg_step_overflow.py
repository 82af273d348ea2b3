"""A step whose new rT r overflows is reported as that, not as a non-finite result.

A = diag(1, 1e-4) and b = s (1, 100), s = sqrt(1.5e308 / 10001): the first
rT r is a finite 1.5e308, the first step's alpha is 5000.5, and the new
residual's rT r is 2499.5 times the old one, past the binary64 range. phi
and r stay finite, so only the step's own check on rT r names the fault;
without it, beta becomes inf and the result check reports d instead.
"""

import math

import pytest

from heatcg.cgsolver import CgConfig, cg_init, cg_solve, cg_step
from heatcg.linalg import DenseMatrix, Vector, dense_to_crs

DENSE = DenseMatrix.from_rows([[1.0, 0.0], [0.0, 1e-4]])
OPERATORS = {"dense": DENSE, "crs": dense_to_crs(DENSE)}
SCALE = math.sqrt(1.5e308 / 10001)
B = Vector([SCALE, 100 * SCALE])
MESSAGE = "^cg: rT r overflowed to inf$"


@pytest.mark.parametrize("kind", OPERATORS)
def test_a_step_reports_its_overflowing_residual(kind):
    state = cg_init(OPERATORS[kind], B, Vector([0.0, 0.0]))
    assert math.isfinite(state.r_dot_r)
    with pytest.raises(ValueError, match=MESSAGE):
        cg_step(state, OPERATORS[kind])


@pytest.mark.parametrize("kind", OPERATORS)
def test_a_solve_reports_its_overflowing_residual(kind):
    with pytest.raises(ValueError, match=MESSAGE):
        cg_solve(OPERATORS[kind], B, CgConfig())
