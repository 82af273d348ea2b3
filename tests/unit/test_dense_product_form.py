"""A dense view of a sparse matrix multiplies by that matrix's CRS passes.

CrsMatrix.to_dense decides once, from the row lengths: the passes number
the longest row's entries, so a row with no zero keeps the grid, and
otherwise the view runs the passes when linalg._PASS_COST times their
number is below rows * cols. The heat matrix (3 passes) takes them from
N = 95 up, since 3000 * 3 < 95 ** 2. Every other DenseMatrix keeps the
grid. Skipping an exact zero cannot change a partial sum that starts at
+0.0, so either form gives the bits of a pure-Python loop over the row.
"""

import random

import numpy as np
import pytest

from heatcg import linalg
from heatcg.cgsolver import CgConfig, cg_solve
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import DenseMatrix, Vector, crs_matvec, dense_to_crs, mat_scale, matvec
from testutil import assert_components_bitwise


@pytest.fixture
def builds(monkeypatch):
    """The calls to linalg._product_passes made while a test runs."""
    calls = []
    real = linalg._product_passes

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_product_passes", counted)
    return calls


def loop_product(grid: list[list[float]], xs: list[float]) -> list[float]:
    out = []
    for row in grid:
        acc = 0.0
        for a, x in zip(row, xs):
            acc += a * x
        out.append(acc)
    return out


def signed_x(rng: random.Random, n: int) -> list[float]:
    return [rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-5, 0)))
            for _ in range(n)]


def view(grid: list[list[float]]) -> DenseMatrix:
    """The dense view of grid's compressed form."""
    return dense_to_crs(DenseMatrix.from_rows(grid)).to_dense()


@pytest.mark.parametrize("cells", [95, 100, 200, 400, 1600])
def test_the_heat_matrix_takes_the_passes(cells):
    system = assemble(HeatProblem(number_of_cells=cells))
    m = system.matrix
    assert m._sparse is system.crs
    assert len(m._sparse._passes) == 3


@pytest.mark.parametrize("cells", [2, 50, 94])
def test_a_small_heat_matrix_keeps_the_grid(cells):
    assert assemble(HeatProblem(number_of_cells=cells)).matrix._sparse is None


def test_the_heat_matrix_s_products_run_no_grid_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("the grid form ran")

    monkeypatch.setattr(linalg, "_grid_kernel", refuse)
    system = assemble(HeatProblem(number_of_cells=200, boundary_right=-4.0))
    want = cg_solve(system.crs, system.rhs, CgConfig()).solution.components
    assert_components_bitwise(cg_solve(system.matrix, system.rhs, CgConfig()).solution.components, want)
    assert_components_bitwise(matvec(system.matrix, system.rhs).components,
                              crs_matvec(system.crs, system.rhs).components)


def test_a_matrix_not_made_by_to_dense_keeps_the_grid(builds):
    heat = assemble(HeatProblem(number_of_cells=200)).matrix
    rng = random.Random(5)
    for m in (DenseMatrix.from_rows(heat.to_rows()), DenseMatrix._trusted(200, 200, heat._grid),
              DenseMatrix(50, 50, [rng.uniform(0.5, 2.0) for _ in range(2500)])):
        assert m._sparse is None
        matvec(m, Vector([1.0] * m.cols))
    assert builds == []


def test_a_view_with_a_full_row_keeps_the_grid_however_cheap_its_passes_look(builds):
    """4000 x 2: two passes would cost less than the grid, but a full row numbers them cols."""
    grid = [[1.0, 0.0] if i % 2 else [0.0, 2.0] for i in range(4000)]
    grid[7] = [3.0, 3.0]
    assert linalg._PASS_COST * 2 < 4000 * 2
    assert view(grid)._sparse is None
    heat = assemble(HeatProblem(number_of_cells=200)).matrix.to_rows()
    heat[100] = [1.0] * 200
    assert view(heat)._sparse is None
    assert builds == []


@pytest.mark.parametrize("rows", [1, 2, 67, 203])
def test_views_with_85_percent_nonzeros_keep_the_grid(builds, rows):
    rng = random.Random(13000 + rows)
    for cols in sorted({rows, 1, 9, 130}):
        grid = [[rng.choice((0.0, -0.0)) if rng.random() < 0.15 else rng.uniform(-9.0, 9.0)
                 for _ in range(cols)] for _ in range(rows)]
        assert view(grid)._sparse is None, f"{rows} x {cols}"
    assert builds == []


def test_two_products_and_a_solve_on_one_view_build_the_passes_once(builds):
    system = assemble(HeatProblem(number_of_cells=100))
    m, x = system.matrix, system.rhs
    first, second = matvec(m, x), matvec(m, x)
    assert cg_solve(m, x, CgConfig()).converged
    crs_matvec(system.crs, x)
    assert len(builds) == 1, "the view and its CrsMatrix share one set of passes"
    assert_components_bitwise(first.components, second.components)


def test_a_scaled_view_keeps_the_grid_with_the_same_bits():
    system = assemble(HeatProblem(number_of_cells=100))
    scaled = mat_scale(2.0, system.matrix)
    x = Vector(signed_x(random.Random(2), 100))
    assert scaled._sparse is None
    want = matvec(dense_to_crs(scaled).to_dense(), x).components
    assert_components_bitwise(matvec(scaled, x).components, want)


@pytest.mark.parametrize(
    "rows, cols, entries, sparse",
    [
        (0, 4, [], False),
        (4, 0, [], False),
        (1, 1, [5.0], False),
        (1, 1, [0.0], True),
        (1, 1, [-0.0], True),
        (1, 5, [0.0, 2.0, 0.0, -3.0, 0.0], False),
        (1, 5, [0.0, -0.0, 0.0, -0.0, 0.0], True),
        (40, 40, [0.0] * 1600, True),
    ],
    ids=["0x4", "4x0", "1x1", "1x1-zero", "1x1-negative-zero", "1x5", "1x5-zeros", "40x40-zeros"],
)
def test_edge_shapes_multiply_like_the_loop(builds, rows, cols, entries, sparse):
    m = dense_to_crs(DenseMatrix(rows, cols, entries)).to_dense()
    xs = signed_x(random.Random(cols), cols)
    want = loop_product([entries[i * cols:(i + 1) * cols] for i in range(rows)], xs)
    assert_components_bitwise(matvec(m, Vector(xs)).components, want)
    assert (m._sparse is not None) == sparse
    assert len(builds) == sparse


def test_negative_zeros_multiply_like_positive_ones():
    grid = assemble(HeatProblem(number_of_cells=100)).matrix._grid.copy(order="F")
    grid[grid == 0.0] = -0.0
    negative = DenseMatrix._trusted(100, 100, grid)
    m = dense_to_crs(negative).to_dense()
    x = Vector(signed_x(random.Random(4), 100))
    assert m._sparse is not None and m._sparse.nnz() == 298
    assert_components_bitwise(matvec(m, x).components, matvec(negative, x).components)


def test_a_row_major_grid_keeps_the_grid_with_the_same_bits():
    m = assemble(HeatProblem(number_of_cells=100)).matrix
    row_major = DenseMatrix._trusted(100, 100, np.ascontiguousarray(m._grid))
    x = Vector(signed_x(random.Random(3), 100))
    assert row_major._sparse is None and m._sparse is not None
    assert_components_bitwise(matvec(row_major, x).components, matvec(m, x).components)


@pytest.mark.parametrize("bandwidth", [1, 2, 3, 4, 5])
def test_banded_views_take_the_passes_with_the_loop_bits(bandwidth):
    n = 200
    rng = random.Random(500 + bandwidth)
    grid = [[rng.choice((1.0, -1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)
             if abs(i - j) <= bandwidth else 0.0 for j in range(n)] for i in range(n)]
    xs = signed_x(rng, n)
    m = view(grid)
    assert m._sparse is not None and len(m._sparse._passes) == 2 * bandwidth + 1
    assert_components_bitwise(matvec(m, Vector(xs)).components, loop_product(grid, xs), f"bandwidth {bandwidth}")


def test_a_band_with_holes_takes_gathering_passes_with_the_loop_bits():
    n = 400
    rng = random.Random(17)
    grid = [[rng.uniform(1.0, 2.0) if abs(i - j) <= 1 and rng.random() < 0.7 else 0.0
             for j in range(n)] for i in range(n)]
    xs = signed_x(rng, n)
    m = view(grid)
    assert m._sparse is not None
    assert not any(isinstance(rows, slice) for rows, _, _ in m._sparse._passes)
    assert_components_bitwise(matvec(m, Vector(xs)).components, loop_product(grid, xs))
