"""The dense grid product still solves the heat problem like CRS, bit for bit.

From N = 95 a dense heat solve multiplies by the matrix's sparse
passes, so solve_heat(storage="dense") no longer compares the grid
product with the CRS one there. Here the grid product, np.multiply into
a terms buffer and an outer-axis np.add.reduce, runs through a callable
operator that applies linalg._grid_kernel to the heat matrix, and the
whole solve must equal the CRS solve bit for bit.
"""

import numpy as np
import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble, solve_heat
from heatcg.linalg import Vector
from testutil import assert_components_bitwise


@pytest.mark.parametrize("cells", [2, 67, 200, 203, 400])
def test_the_grid_product_solves_the_heat_problem_like_crs(cells):
    problem = HeatProblem(number_of_cells=cells, boundary_left=-3.0, boundary_right=7.0)
    config = CgConfig(max_iterations=4 * cells)
    system = assemble(problem)
    x, out = np.empty(cells), np.empty(cells)
    product = linalg._grid_kernel(system.matrix, x, out)

    def grid_operator(v: Vector) -> Vector:
        x[:] = v.components
        return Vector(product().tolist())

    got = cg_solve(grid_operator, system.rhs, config)
    want = solve_heat(problem, config, storage="crs").cg
    assert got.iterations == want.iterations
    assert_components_bitwise(got.solution.components, want.solution.components, f"N = {cells}")
