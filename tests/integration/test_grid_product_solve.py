"""The dense product's grid forms still solve the heat problem like CRS, bit for bit.

From N = 95 a dense heat solve multiplies by the matrix's sparse
passes, so solve_heat(storage="dense") no longer compares the grid
product with the CRS one there. Here each grid form, the einsum pass
and the multiply-then-reduce pair, is forced in turn through a callable
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

REAL_EINSUM = np.einsum


@pytest.fixture(params=["einsum", "pair"])
def form(request, monkeypatch):
    """The forced grid form, and a list of the products' calls to np.einsum."""
    if request.param == "pair":
        monkeypatch.setattr(linalg, "_einsum_folds", lambda: False)
    elif not linalg._einsum_folds():  # run now, so that calls counts products only
        pytest.skip("this numpy's einsum fails the probe: only the pair runs")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return REAL_EINSUM(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    return request.param, calls


@pytest.mark.parametrize("cells", [2, 67, 200, 203, 400])
def test_each_grid_form_solves_the_heat_problem_like_crs(form, cells):
    name, calls = form
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
    assert_components_bitwise(got.solution.components, want.solution.components, f"{name} N = {cells}")
    assert bool(calls) == (name == "einsum")
