"""A dense solve by the grid product holds one N x N terms buffer more than its inputs.

The grid product, np.multiply into a cols x rows terms buffer and an
outer-axis np.add.reduce, allocates that buffer once when the solve
binds its matrix, and every product shares it. Traced with tracemalloc
at N = 300 (720,000 bytes a grid), a dense cg_solve on a matrix built
beforehand peaks at one grid more than its inputs, within the 1024 bytes
a cell of test_dense_solve_memory. The heat matrix's dense view runs its
sparse passes from N = 95, so the solve traced here is of the heat
matrix plus a positive fill: SPD, and not a view of a CrsMatrix, so its
product keeps the grid.
"""

from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import assemble
from heatcg.linalg import DenseMatrix
from test_dense_solve_memory import ALLOWANCE, GRID, PROBLEM, traced_peak


def test_a_dense_solve_by_the_grid_product_peaks_at_one_grid_more():
    system = assemble(PROBLEM)
    fill = 1e-3 * system.matrix.at(0, 0)
    full = DenseMatrix.from_rows([[a + fill for a in row] for row in system.matrix.to_rows()])
    assert full._sparse is None
    result, peak = traced_peak(lambda: cg_solve(full, system.rhs, CgConfig()))
    assert result.converged
    assert GRID <= peak <= GRID + ALLOWANCE, f"{peak} bytes at peak, {peak / GRID:.2f} grids"
