"""One trusted CRS constructor: dense_to_crs and assemble compress the same way.

CrsMatrix._compressed keeps the nonzeros of a grid row by row, -0.0
counting as zero, and builds the row offsets itself. Both of its callers
are checked here against a pure-Python compression, value bits and all,
and against the public constructor, which checks every CRS invariant.
The public constructors read their components in one pass: a one-shot
iterator is read once, and only up to the first bad component, which the
error names.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import CrsMatrix, DenseMatrix, Vector, dense_to_crs


def _bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _compress(rows: int, cols: int, entries: list[float]):
    """Row-major values, column indices and row offsets of the nonzero entries."""
    values, col_indices, row_ptr = [], [], [0]
    for i in range(rows):
        for j in range(cols):
            x = entries[i * cols + j]
            if x != 0.0:
                values.append(x)
                col_indices.append(j)
        row_ptr.append(len(values))
    return values, col_indices, row_ptr


def _assert_arrays(m: CrsMatrix, values, col_indices, row_ptr) -> None:
    assert m._values.dtype == np.float64
    assert m._col_indices.dtype == np.intp and m._row_ptr.dtype == np.intp
    assert _bits(m._values.tolist()) == _bits(values)
    assert m._col_indices.tolist() == list(col_indices)
    assert m._row_ptr.tolist() == list(row_ptr)


def _both_layouts(rows: int, cols: int, entries: list[float]):
    """The public (column-major) matrix and a row-major one with the same entries."""
    grid = np.array(entries, dtype=np.float64).reshape(rows, cols)
    row_major = DenseMatrix._trusted(rows, cols, np.ascontiguousarray(grid))
    assert row_major._grid.flags.c_contiguous
    return DenseMatrix(rows, cols, entries), row_major


GRIDS = [
    (0, 0, []),
    (0, 3, []),
    (3, 0, []),
    (1, 1, [0.0]),
    (1, 1, [-0.0]),
    (1, 1, [5e-324]),
    (2, 3, [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]),
    (3, 3, [1.0, -0.0, 2.0, 0.0, 0.0, 0.0, -3.0, 0.0, -5e-324]),
    (3, 4, [0.0, 0.0, 0.0, 0.0, 1e300, -1e-300, -0.0, 7.0, 0.0, 0.0, 0.0, -2.5]),
    (4, 2, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
]


def test_dense_to_crs_matches_a_python_compression_in_either_layout():
    for rows, cols, entries in GRIDS:
        expected = _compress(rows, cols, entries)
        for m in _both_layouts(rows, cols, entries):
            crs = dense_to_crs(m)
            assert (crs.rows, crs.cols) == (rows, cols)
            _assert_arrays(crs, *expected)
            assert crs == CrsMatrix(rows, cols, *expected)
            assert crs.to_dense() == m


_entry = st.sampled_from([0.0, -0.0, 0.0, 1.0, -2.5, 5e-324, -1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@given(data=st.data(), rows=st.integers(0, 7), cols=st.integers(0, 7))
def test_random_grids_compress_like_python(data, rows, cols):
    entries = data.draw(st.lists(_entry, min_size=rows * cols, max_size=rows * cols))
    expected = _compress(rows, cols, entries)
    for m in _both_layouts(rows, cols, entries):
        _assert_arrays(dense_to_crs(m), *expected)


def test_the_assembled_crs_is_the_compressed_dense_view():
    for cells in (1, 2, 3, 67, 400):
        system = assemble(HeatProblem(gamma=0.7, domain_length=3.0, number_of_cells=cells))
        crs, from_dense = system.crs, dense_to_crs(system.matrix)
        _assert_arrays(crs, from_dense.values, from_dense.col_indices, from_dense.row_ptr)
        assert crs.nnz() == 3 * cells - 2
        assert crs == CrsMatrix(cells, cells, crs.values, crs.col_indices, crs.row_ptr)


def test_an_underflowing_coupling_stores_nothing():
    system = assemble(HeatProblem(gamma=1e-300, domain_length=1e300, number_of_cells=4))
    _assert_arrays(system.crs, [], [], [0, 0, 0, 0, 0])
    _assert_arrays(dense_to_crs(system.matrix), [], [], [0, 0, 0, 0, 0])


class _OneShot:
    """An iterable that counts its passes and the items drawn from it."""

    def __init__(self, items):
        self.items, self.passes, self.drawn = list(items), 0, 0

    def __iter__(self):
        self.passes += 1
        for x in self.items:
            self.drawn += 1
            yield x


BUILDERS = [
    (lambda values: Vector(values), "Vector"),
    (lambda values: DenseMatrix(1, 5, values), "DenseMatrix"),
    (lambda values: CrsMatrix(1, 5, values, range(5), [0, 5]), "CrsMatrix values"),
]


def test_a_public_constructor_reads_an_iterator_once():
    for build, _ in BUILDERS:
        source = _OneShot([1.0, 2, np.float64(3.0), 4.0, -5.0])
        build(source)
        assert (source.passes, source.drawn) == (1, 5)


@pytest.mark.parametrize(
    "items, first_bad, error, message",
    [
        ([1.0, math.nan, "x", math.inf, 2.0], 1, ValueError, "must be a finite real"),
        ([1.0, 2.0, True, math.nan, 3.0], 2, TypeError, "must be a real number"),
        ([1.0, 2.0, 3.0, 10**400, None], 3, ValueError, "must be a finite real"),
    ],
)
def test_a_public_constructor_names_the_first_of_several_bad_components(
    items, first_bad, error, message
):
    for build, context in BUILDERS:
        source = _OneShot(items)
        with pytest.raises(error, match=f"^{context}: component {first_bad} {message}"):
            build(source)
        # one pass: nothing after the first bad component is read
        assert (source.passes, source.drawn) == (1, first_bad + 1)
