"""linalg._entry_rows gives the row of each stored CRS entry, in storage order.

Row i owns the entries row_ptr[i] to row_ptr[i+1] - 1, so an empty row
contributes nothing, trailing empty rows leave no trace, and a 0x0
matrix (row_ptr == [0]) has no entries at all.
"""

import numpy as np

from heatcg.linalg import CrsMatrix, _entry_rows


def test_rows_repeat_by_their_entry_counts():
    got = _entry_rows(np.array([0, 2, 3, 6], dtype=np.intp))
    assert got.tolist() == [0, 0, 1, 2, 2, 2]
    assert got.dtype.kind == "i"


def test_an_empty_row_in_the_middle_is_skipped():
    assert _entry_rows(np.array([0, 1, 1, 1, 3], dtype=np.intp)).tolist() == [0, 3, 3]


def test_trailing_empty_rows_leave_no_entries():
    assert _entry_rows(np.array([0, 2, 3, 3, 3], dtype=np.intp)).tolist() == [0, 0, 1]


def test_a_matrix_of_empty_rows_has_no_entry_rows():
    assert _entry_rows(np.array([0, 0, 0], dtype=np.intp)).tolist() == []


def test_a_zero_by_zero_matrix_has_no_entry_rows():
    m = CrsMatrix(0, 0, [], [], [0])
    got = _entry_rows(m._row_ptr)
    assert got.tolist() == [] and got.dtype.kind == "i"


def test_entry_rows_place_the_stored_values_of_to_dense():
    m = CrsMatrix(4, 3, [1.5, -2.0, 3.0], [2, 0, 1], [0, 1, 1, 3, 3])
    rows = _entry_rows(m._row_ptr)
    dense = m.to_dense()
    assert [dense.at(int(r), c) for r, c in zip(rows, m.col_indices)] == list(m.values)
