"""The dense grid product equals a pure-Python loop and the sparse product, bit for bit.

Any DenseMatrix that is not a sparse view of a CrsMatrix multiplies
with np.multiply into a cols x rows terms buffer and an outer-axis
np.add.reduce over it: each column j is added into every row's lane in
turn, from +0.0. That pair must equal a pure-Python loop and crs_matvec
bit for bit, on signed zeros and magnitudes from 1e-300 to 1e300, on
row-major grids as well as column-major ones, and a dense solve must
equal a CRS solve bit for bit. A product bound once (linalg._grid_kernel)
rereads x on every call and writes into the same out, as the CG loop
calls it.
"""

import random

import numpy as np
import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble, solve_heat
from heatcg.linalg import DenseMatrix, Vector, crs_matvec, dense_to_crs, matvec
from testutil import assert_components_bitwise


def loop_product(grid: list[list[float]], xs: list[float]) -> list[float]:
    out = []
    for row in grid:
        acc = 0.0
        for a, x in zip(row, xs):
            acc += a * x
        out.append(acc)
    return out


def draw(rng: random.Random, low: int, high: int) -> float:
    kind = rng.random()
    if kind < 0.15:
        return rng.choice((0.0, -0.0))
    return rng.choice((1.0, -1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(low, high)


@pytest.mark.parametrize("rows", [0, 1, 2, 67, 203])
def test_the_grid_product_matches_the_loop_and_the_sparse_product(rows):
    rng = random.Random(13000 + rows)
    for cols in sorted({rows, 1, 9, 130}):
        grid = [[draw(rng, -300, 299) for _ in range(cols)] for _ in range(rows)]
        xs = [draw(rng, -5, 0) for _ in range(cols)]
        m, x = DenseMatrix.from_rows(grid) if rows else DenseMatrix(0, cols, []), Vector(xs)
        assert m._sparse is None
        want = loop_product(grid, xs)
        label = f"{rows} x {cols}"
        assert_components_bitwise(matvec(m, x).components, want, label)
        assert_components_bitwise(crs_matvec(dense_to_crs(m), x).components, want, label)
        row_major = DenseMatrix._trusted(rows, cols, np.ascontiguousarray(m._grid))
        assert_components_bitwise(matvec(row_major, x).components, want, f"row-major {label}")


@pytest.mark.parametrize("cells", [2, 50, 67, 94, 203])
def test_the_grid_product_solves_like_crs(cells):
    problem = HeatProblem(number_of_cells=cells, boundary_left=-3.0, boundary_right=7.0)
    dense = solve_heat(problem, CgConfig(), storage="dense")
    crs = solve_heat(problem, CgConfig(), storage="crs")
    assert_components_bitwise(dense.temperature.components, crs.temperature.components, f"N = {cells}")
    # the heat matrix's dense view keeps the grid up to N = 94 and runs its sparse
    # passes from N = 95; the heat matrix plus a positive fill is SPD and built
    # from rows, so it keeps the grid at every N
    system = assemble(problem)
    fill = 1e-3 * system.matrix.at(0, 0)
    full = DenseMatrix.from_rows([[a + fill for a in row] for row in system.matrix.to_rows()])
    assert full._sparse is None
    dense = cg_solve(full, system.rhs, CgConfig())
    crs = cg_solve(dense_to_crs(full), system.rhs, CgConfig())
    assert_components_bitwise(dense.solution.components, crs.solution.components, f"full N = {cells}")


def test_a_row_major_grid_solves_like_crs():
    system = assemble(HeatProblem(number_of_cells=40))
    grid = system.matrix._grid
    row_major = DenseMatrix._trusted(40, 40, np.ascontiguousarray(grid))
    want = cg_solve(system.crs, system.rhs, CgConfig()).solution.components
    got = cg_solve(row_major, system.rhs, CgConfig()).solution.components
    assert_components_bitwise(got, want, "row-major")


@pytest.mark.parametrize("rows", [1, 2, 67])
def test_a_bound_grid_product_rereads_x_on_every_call(rows):
    rng = random.Random(14000 + rows)
    grid = [[draw(rng, -300, 299) for _ in range(9)] for _ in range(rows)]
    x, out = np.empty(9), np.empty(rows)
    product = linalg._grid_kernel(DenseMatrix.from_rows(grid), x, out)
    for call in range(3):
        xs = [draw(rng, -5, 0) for _ in range(9)]
        x[:] = xs
        got = product()
        assert got is out
        assert_components_bitwise(got.tolist(), loop_product(grid, xs), f"{rows} rows, call {call}")
