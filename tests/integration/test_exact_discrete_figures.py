"""Three heat solves held to their exact true residual and forward error, on both storages.

The exact oracle (tests/exact_oracle.py) solves each assembled system in
rational arithmetic. The figures are asserted to two significant digits,
so a change to the solver that moves them shows here, whatever the
recurrence residual reports. The rows: the default problem; gamma = 1e6,
which takes 651 iterations at N = 400; and a right boundary value of 1e8,
whose true residual is 1.7e-4 although the solve reports convergence at
the default tolerance of 1e-10.
"""

import pytest

from exact_oracle import exact_figures
from heatcg.cgsolver import CgConfig
from heatcg.heat1d import HeatProblem, assemble, solve_heat

ROWS = {
    "default-400": (HeatProblem(number_of_cells=400), 400, "6.7e-12", "9.7e-15"),
    "gamma-1e6-400": (HeatProblem(gamma=1e6, number_of_cells=400), 651, "5.8e-06", "9.5e-15"),
    "t-right-1e8-200": (HeatProblem(number_of_cells=200, boundary_right=1e8), 398,
                        "1.7e-04", "9.9e-07"),
}


@pytest.mark.parametrize("storage", ["dense", "crs"])
@pytest.mark.parametrize("row", ROWS)
def test_the_exact_residual_and_forward_error_are_the_pinned_ones(row, storage):
    problem, iterations, residual, error = ROWS[row]
    solution = solve_heat(problem, CgConfig(), storage)
    system = assemble(problem)
    crs = system.crs
    figures = exact_figures(crs.values, crs.col_indices, crs.row_ptr, system.rhs.components,
                            solution.temperature.components)
    assert solution.cg.converged
    assert solution.cg.iterations == iterations
    assert [f"{figure:.1e}" for figure in figures] == [residual, error]
