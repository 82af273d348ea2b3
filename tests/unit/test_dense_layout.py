"""A DenseMatrix reads and multiplies the same whatever its grid's memory layout.

DenseMatrix stores its grid column-major, so that the product's terms
are written contiguously. The layout may change the product's speed but
never its bits: a grid kept row-major must multiply to the same bits.
A matrix built from rows and the same matrix converted from CRS must
read the same through entries, to_rows, at, ==, hash and repr.
"""

import random

import numpy as np
import pytest

from heatcg.linalg import DenseMatrix, Vector, dense_to_crs, mat_scale, matvec
from testutil import assert_components_bitwise


def draw_rows(rng: random.Random, rows: int, cols: int) -> list[list[float]]:
    """Entries with exact zeros, which dense_to_crs drops and to_dense restores."""
    return [
        [rng.choice((0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)))
         for _ in range(cols)]
        for _ in range(rows)
    ]


@pytest.mark.parametrize("rows, cols", [(1, 300), (300, 1), (2, 2), (7, 5), (40, 37), (0, 3), (3, 0)])
def test_a_row_major_grid_multiplies_to_the_same_bits(rows, cols):
    rng = random.Random(1000 * rows + cols)
    grid = np.array(draw_rows(rng, rows, cols)).reshape(rows, cols)
    grid[grid == 0.0] = -0.0  # signed zeros, which the sums must not leak
    column_major = DenseMatrix._trusted(rows, cols, np.asfortranarray(grid))
    row_major = DenseMatrix._trusted(rows, cols, np.ascontiguousarray(grid))
    x = Vector([rng.uniform(-2.0, 2.0) for _ in range(cols)])
    assert_components_bitwise(
        matvec(row_major, x).components, matvec(column_major, x).components
    )


def test_from_rows_and_to_dense_store_column_major_and_read_the_same():
    rows_data = draw_rows(random.Random(7), 6, 9)
    built = DenseMatrix.from_rows(rows_data)
    converted = dense_to_crs(built).to_dense()
    for m in (built, converted, mat_scale(2.0, built)):
        assert m._grid.flags.f_contiguous, "the product reads the grid's transpose contiguously"
    assert converted.entries == built.entries == tuple(x for row in rows_data for x in row)
    assert converted.to_rows() == built.to_rows() == rows_data
    assert all(
        converted.at(r, c) == built.at(r, c) == rows_data[r][c]
        for r in range(6) for c in range(9)
    )
    assert converted == built and hash(converted) == hash(built)
    assert repr(converted) == repr(built)
    row_major = DenseMatrix._trusted(6, 9, np.ascontiguousarray(built._grid))
    assert row_major == built and hash(row_major) == hash(built)
    assert repr(row_major) == repr(built)
