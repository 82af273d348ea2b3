"""CrsMatrix checks every row offset before it walks the column order.

An offset past the next one once sent the column walk outside
col_indices, a bare IndexError; it is the non-decreasing ValueError.
"""

import pytest

from heatcg.linalg import CrsMatrix


@pytest.mark.parametrize("middle", [5, 2**70], ids=["past_the_entries", "beyond_intp"])
def test_an_offset_past_the_next_is_a_value_error_not_an_index_error(middle):
    with pytest.raises(
        ValueError,
        match=rf"^row_ptr must be non-decreasing: row_ptr\[1\] == {middle} > row_ptr\[2\] == 2$",
    ):
        CrsMatrix(2, 3, [1.0, 2.0], [0, 1], [0, middle, 2])


def test_a_later_offset_fault_is_named_before_an_earlier_column_order_fault():
    # row 0 stores columns 1 then 0, and row_ptr[1] == 2 > row_ptr[2] == 1
    with pytest.raises(ValueError, match=r"^row_ptr must be non-decreasing: row_ptr\[1\] == 2"):
        CrsMatrix(3, 3, [1.0, 2.0, 3.0], [1, 0, 2], [0, 2, 1, 3])


def test_a_column_order_fault_alone_keeps_its_message():
    with pytest.raises(
        ValueError, match=r"^col_indices must be strictly increasing within row 1: 2 then 0$"
    ):
        CrsMatrix(2, 3, [1.0, 2.0, 3.0], [0, 2, 0], [0, 1, 3])
