"""CrsMatrix sizes and indices beyond numpy's index range are a ValueError."""

import numpy as np
import pytest

from heatcg.linalg import CrsMatrix

LIMIT = int(np.iinfo(np.intp).max)


@pytest.mark.parametrize(
    "args, named",
    [
        ((1, 10**30, [1.0], [10**20], [0, 1]), r"cols == 10{30}"),  # and col_indices[0]
        ((1, LIMIT + 1, [], [], [0, 0]), f"cols == {LIMIT + 1}"),
        ((10**30, 1, [], [], [0, 0]), r"rows \+ 1 == 10{29}1"),
        ((1, 2, [1.0], [0], [0, 10**20]), r"row_ptr\[1\] must equal"),
        ((1, 2, [1.0], [0], [10**20, 1]), r"row_ptr\[0\] must be 0"),
    ],
    ids=["col_indices", "cols", "rows", "row_ptr_end", "row_ptr_start"],
)
def test_out_of_range_entry_is_named_in_a_value_error(args, named):
    with pytest.raises(ValueError, match=named):
        CrsMatrix(*args)


def test_the_largest_numpy_index_is_still_a_valid_column():
    m = CrsMatrix(1, LIMIT, [2.0], [LIMIT - 1], [0, 1])
    assert m.cols == LIMIT and m.col_indices == (LIMIT - 1,)
