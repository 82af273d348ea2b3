"""A dense solve that multiplies by einsum holds no N x N terms buffer.

With the probe passing, linalg's dense product is one einsum pass over
the grid, so a dense cg_solve on a matrix built beforehand peaks at
O(N) above its inputs, and solve_heat, which also derives the matrix,
at one grid plus O(N): traced with tracemalloc at N = 300 (720,000
bytes a grid), within the 1024 bytes a cell of test_dense_solve_memory.
The multiply-then-reduce pair that runs when the probe fails keeps a
cols x rows terms buffer for the solve, one more grid, which this
allowance cannot hold. The heat matrix's dense view runs its sparse
passes from N = 95, so the heat solves traced here with einsum forced no
longer reach the grid product; the last test and the pair's case trace
the heat matrix plus a positive fill instead: SPD, and not a view of a
CrsMatrix, so its product keeps the grid.
"""

import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import assemble, solve_heat
from heatcg.linalg import DenseMatrix
from test_dense_solve_memory import ALLOWANCE, GRID, PROBLEM, traced_peak


@pytest.mark.parametrize("einsum", [True, False])
def test_a_dense_solve_peaks_at_o_of_n_by_einsum_and_a_grid_more_by_the_pair(einsum, monkeypatch):
    monkeypatch.setattr(linalg, "_einsum_folds", lambda: einsum)
    system = assemble(PROBLEM)
    matrix = system.matrix
    if not einsum:
        fill = 1e-3 * matrix.at(0, 0)
        matrix = DenseMatrix.from_rows([[a + fill for a in row] for row in matrix.to_rows()])
    result, peak = traced_peak(lambda: cg_solve(matrix, system.rhs, CgConfig()))
    assert result.converged
    if einsum:
        assert peak <= ALLOWANCE, f"{peak} bytes at peak, {peak / GRID:.2f} grids"
    else:
        assert peak >= GRID, f"{peak} bytes at peak, {peak / GRID:.2f} grids"


def test_a_dense_heat_solve_by_einsum_peaks_at_one_grid(monkeypatch):
    monkeypatch.setattr(linalg, "_einsum_folds", lambda: True)
    solution, peak = traced_peak(lambda: solve_heat(PROBLEM, CgConfig(), storage="dense"))
    assert solution.cg.converged
    assert peak <= GRID + ALLOWANCE, f"{peak} bytes at peak, {peak / GRID:.2f} grids"


def test_a_dense_solve_of_a_full_matrix_by_einsum_peaks_at_o_of_n(monkeypatch):
    """The matrix the pair's case traces at one grid more: einsum holds no terms buffer."""
    monkeypatch.setattr(linalg, "_einsum_folds", lambda: True)
    system = assemble(PROBLEM)
    fill = 1e-3 * system.matrix.at(0, 0)
    full = DenseMatrix.from_rows([[a + fill for a in row] for row in system.matrix.to_rows()])
    assert full._sparse is None
    result, peak = traced_peak(lambda: cg_solve(full, system.rhs, CgConfig()))
    assert result.converged
    assert peak <= ALLOWANCE, f"{peak} bytes at peak, {peak / GRID:.2f} grids"
