"""The passes of the sparse product: by diagonal or by row position, bits unchanged.

A CrsMatrix builds its product passes once. The heat matrix must run as
at most 3 passes, sliced by diagonal (no gather) once its rows hold all
3 diagonals; a pattern with more diagonals than entries in its longest
row keeps one pass per row position. Any matrix, banded or not, must
multiply exactly as each row's left-to-right fold from +0.0 and as the
dense product of the same matrix.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatcg import linalg
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import CrsMatrix, Vector, crs_matvec, matvec
from testutil import assert_components_bitwise


def row_fold(m: CrsMatrix, x: list[float]) -> list[float]:
    values, cols, ptr = m.values, m.col_indices, m.row_ptr
    out = []
    for r in range(m.rows):
        acc = 0.0
        for k in range(ptr[r], ptr[r + 1]):
            acc += values[k] * x[cols[k]]
        out.append(acc)
    return out


@pytest.mark.parametrize("cells", [1, 2, 3, 400])
def test_heat_matrix_runs_as_at_most_three_passes_sliced_by_diagonal(cells):
    problem = HeatProblem(gamma=1.5, domain_length=2.0, number_of_cells=cells,
                          boundary_left=-3.0, boundary_right=7.0)
    m = assemble(problem).crs
    assert 1 <= len(m._passes) <= 3
    sliced = [isinstance(rows, slice) and isinstance(cols, slice) for rows, _, cols in m._passes]
    # at N = 2 the 3 diagonals outnumber the 2 entries of a row: 2 position passes
    assert sliced == ([False] * 2 if cells == 2 else [True] * len(m._passes))
    x = [float(i % 7) - 2.5 for i in range(cells)]
    assert_components_bitwise(crs_matvec(m, Vector(x)).components, row_fold(m, x))


def test_a_diagonal_with_a_gap_gathers_and_keeps_the_bits():
    # offsets -1 and 0, but row 2 skips its diagonal entry
    m = CrsMatrix(4, 4, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0, 0, 1, 1, 2, 3], [0, 1, 3, 4, 6])
    assert len(m._passes) == 2
    assert isinstance(m._passes[0][0], slice)  # offset -1: rows 1, 2, 3
    assert m._passes[1][0].tolist() == [0, 1, 3]  # offset 0, row 2 missing
    x = [0.5, -1.25, 3.0, 1e-300]
    assert_components_bitwise(crs_matvec(m, Vector(x)).components, row_fold(m, x))


def test_more_diagonals_than_row_entries_keep_one_pass_per_position():
    # an anti-diagonal: 3 diagonals, but no row holds more than 1 entry
    m = CrsMatrix(3, 3, [1.0, 2.0, 3.0], [2, 1, 0], [0, 1, 2, 3])
    assert len(m._passes) == 1
    x = [4.0, -5.0, 6.0]
    assert_components_bitwise(crs_matvec(m, Vector(x)).components, [6.0, -10.0, 12.0])


def test_a_wide_matrix_builds_and_multiplies_without_allocating_its_width():
    width = 10**12
    tracemalloc.start()
    try:
        m = CrsMatrix(1, width, [1.0, 2.0], [0, width - 1], [0, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(m._passes) == 2
    # a zero-stride view stands in for a vector of 10**12 components
    x = np.broadcast_to(np.float64(0.75), (width,))
    assert linalg._crs_product(m, x).tolist() == [2.25]


nonzero = st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True).filter(bool)
component = st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True)


@st.composite
def crs_matrices(draw):
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(1, 9))
    if draw(st.booleans()):  # banded: a few diagonals, each with gaps
        offsets = draw(st.sets(st.integers(-3, 3), min_size=1, max_size=4))
        entries = [
            [c for c in sorted(r + o for o in offsets) if 0 <= c < cols and draw(st.booleans())]
            for r in range(rows)
        ]
    else:  # any pattern, empty rows included
        entries = [sorted(draw(st.sets(st.integers(0, cols - 1)))) for _ in range(rows)]
    values, col_indices, row_ptr = [], [], [0]
    for row in entries:
        values += [draw(nonzero) for _ in row]
        col_indices += row
        row_ptr.append(len(values))
    m = CrsMatrix(rows, cols, values, col_indices, row_ptr)
    return m, draw(st.lists(component, min_size=cols, max_size=cols))


@given(crs_matrices())
def test_sparse_product_equals_the_row_fold_and_the_dense_product(case):
    m, x = case
    got = crs_matvec(m, Vector(x)).components
    assert_components_bitwise(got, row_fold(m, x), "row fold")
    assert_components_bitwise(got, matvec(m.to_dense(), Vector(x)).components, "dense")
