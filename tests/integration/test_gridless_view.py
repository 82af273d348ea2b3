"""A dense view that runs its CrsMatrix's passes holds no grid until something reads one.

CrsMatrix.to_dense returns such a view with no grid; its first grid
read builds the column-major grid from the CrsMatrix and keeps it. Every
reader (entries, at, to_rows, ==, hash, repr, mat_scale, dense_to_crs
and the grid product) must give on a fresh grid-less view what it gives
on the same matrix with its grid built eagerly, and a product or a solve
must build none. So a dense heat solve from N = 95 takes O(N) memory:
traced with tracemalloc at N = 300, solve_heat peaks within the 1024
bytes a cell of test_dense_solve_memory, where one 720,000-byte grid
alone is more than twice that.
"""

import random

import numpy as np
import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble, solve_heat
from heatcg.linalg import CrsMatrix, DenseMatrix, Vector, dense_to_crs, mat_scale, matvec
from test_dense_solve_memory import ALLOWANCE, GRID, PROBLEM, traced_peak
from testutil import assert_components_bitwise


def band(rows: int, cols: int, offsets: tuple[int, ...], seed: int) -> CrsMatrix:
    """A rows x cols matrix with random nonzero entries on the given diagonals."""
    rng = random.Random(seed)
    grid = [[rng.choice((1.0, -1.0)) * rng.uniform(0.5, 2.0) if j - i in offsets else 0.0
             for j in range(cols)] for i in range(rows)]
    return dense_to_crs(DenseMatrix.from_rows(grid))


MATRICES = {
    "heat 95": assemble(HeatProblem(number_of_cells=95)).crs,
    "heat 130": assemble(HeatProblem(number_of_cells=130)).crs,
    "diagonal 60": band(60, 60, (0,), 1),
    "band 100 x 150": band(100, 150, (0, 2), 2),
}


def view(name: str) -> DenseMatrix:
    m = MATRICES[name].to_dense()
    assert m._sparse is MATRICES[name] and m._built_grid is None
    return m


def eager(name: str) -> DenseMatrix:
    """The same matrix through the checked constructor, its grid built from the entries."""
    m = MATRICES[name]
    grid = [[0.0] * m.cols for _ in range(m.rows)]
    for i in range(m.rows):
        for k in range(m.row_ptr[i], m.row_ptr[i + 1]):
            grid[i][m.col_indices[k]] = m.values[k]
    return DenseMatrix.from_rows(grid)


READERS = {
    "entries": lambda m: [v.hex() for v in m.entries],
    "at": lambda m: [m.at(i, j).hex() for i in range(m.rows) for j in range(m.cols)],
    "to_rows": lambda m: [[v.hex() for v in row] for row in m.to_rows()],
    "hash": hash,
    "repr": repr,
    "mat_scale": lambda m: [v.hex() for v in mat_scale(-1.5, m).entries],
    "dense_to_crs": dense_to_crs,
    "grid product": lambda m: linalg._grid_kernel(
        m, np.linspace(-1.0, 1.0, m.cols), np.empty(m.rows))().tobytes(),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("name", MATRICES)
def test_a_reader_sees_on_a_gridless_view_what_it_sees_on_an_eager_grid(name, reader):
    lazy = view(name)
    assert READERS[reader](lazy) == READERS[reader](eager(name))
    assert lazy._built_grid is not None and lazy._built_grid.flags.f_contiguous
    assert lazy._sparse is MATRICES[name], "a read keeps the view's product on the passes"


@pytest.mark.parametrize("name", MATRICES)
def test_equality_builds_the_grid_of_either_side(name):
    assert view(name) == eager(name)
    assert eager(name) == view(name)
    assert view(name) == view(name)
    assert dense_to_crs(view(name)) == MATRICES[name]


@pytest.mark.parametrize("name", MATRICES)
def test_a_product_and_a_solve_build_no_grid(name):
    m = view(name)
    x = Vector([float(j % 7) - 3.0 for j in range(m.cols)])
    assert_components_bitwise(matvec(m, x).components, matvec(eager(name), x).components)
    if name.startswith("heat"):  # SPD
        assert cg_solve(m, x, CgConfig()).converged
    assert m._built_grid is None


def test_a_view_that_keeps_the_grid_product_builds_its_grid_at_once():
    m = assemble(HeatProblem(number_of_cells=94)).matrix
    assert m._sparse is None and m._built_grid is not None and m._built_grid.flags.f_contiguous


def test_a_dense_heat_solve_peaks_below_one_grid():
    solution, peak = traced_peak(lambda: solve_heat(PROBLEM, CgConfig(), storage="dense"))
    assert solution.cg.converged and solution.cg.iterations == PROBLEM.number_of_cells
    assert peak <= ALLOWANCE < GRID / 2, f"{peak} bytes at peak, {peak / GRID:.2f} grids"
