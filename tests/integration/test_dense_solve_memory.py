"""A dense solve holds two N x N grids at most: the matrix and one product's terms.

The CLI refuses a dense solve when 16 * N**2 bytes exceed physical memory
(its docstring and the README say so): a model of two float64 grids, the
matrix and the product's cols x rows terms buffer, which the solver
allocates once per solve. Traced with tracemalloc at N = 300 (720,000
bytes a grid), a dense cg_solve on a matrix built beforehand peaks at one
grid plus O(N), and solve_heat, which also derives the matrix, at two
grids plus O(N). The O(N) allowance, 1024 bytes a cell (307,200 bytes),
covers the workspace's arrays and about 70 KB of interpreter and numpy
bookkeeping and is less than half a grid, so a third N x N array, such
as a copy of the grid in another layout, fails.
"""

import gc
import tracemalloc

from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble, solve_heat

N = 300
PROBLEM = HeatProblem(number_of_cells=N)
CONFIG = CgConfig()
GRID = 8 * N * N
ALLOWANCE = 1024 * N


def traced_peak(run):
    """What run() returns, and the peak bytes allocated while it ran."""
    run()  # first calls may fill numpy's and the interpreter's caches
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_dense_solve_on_a_built_matrix_peaks_at_one_grid():
    system = assemble(PROBLEM)
    matrix = system.matrix
    result, peak = traced_peak(lambda: cg_solve(matrix, system.rhs, CONFIG))
    assert result.converged and result.iterations == N
    assert peak <= GRID + ALLOWANCE, f"{peak} bytes at peak, {peak / GRID:.2f} grids"


def test_a_dense_heat_solve_peaks_at_two_grids():
    solution, peak = traced_peak(lambda: solve_heat(PROBLEM, CONFIG, storage="dense"))
    assert solution.cg.converged and solution.cg.iterations == N
    assert peak <= 2 * GRID + ALLOWANCE, f"{peak} bytes at peak, {peak / GRID:.2f} grids"
