"""One grouping rule builds the sparse product's passes, keyed by diagonal or by row position.

The entries are grouped by their diagonal offset col - row, or, when a
pattern has more diagonals than entries in its longest row, by their
position k in the row. Any group on contiguous rows and one diagonal is
indexed by slices, whichever key made it; every other group gathers.
"""

from hypothesis import given
from hypothesis import strategies as st

from heatcg.linalg import CrsMatrix

value = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True).filter(bool)


@st.composite
def crs_matrices(draw):
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(max(rows, 1), 14))
    kind = draw(st.sampled_from(["banded", "general", "diagonal first"]))
    if kind == "banded":  # a few diagonals, each with gaps
        offsets = draw(st.sets(st.integers(-3, 3), min_size=1, max_size=4))
        entries = [
            [c for c in sorted(r + o for o in offsets) if 0 <= c < cols and draw(st.booleans())]
            for r in range(rows)
        ]
    elif kind == "general":  # any pattern, empty rows included
        entries = [sorted(draw(st.sets(st.integers(0, cols - 1)))) for _ in range(rows)]
    else:  # each row starts on the main diagonal, then scattered columns to its right
        entries = [
            [r] + sorted(draw(st.sets(st.integers(r + 1, cols - 1), max_size=3)))
            if r + 1 < cols else [r]
            for r in range(rows)
        ]
    values, col_indices, row_ptr = [], [], [0]
    for row in entries:
        values += [draw(value) for _ in row]
        col_indices += row
        row_ptr.append(len(values))
    return CrsMatrix(rows, cols, values, col_indices, row_ptr)


def pass_entries(rows, values, cols) -> list[tuple[int, int, float]]:
    if isinstance(rows, slice):
        rows, cols = range(rows.start, rows.stop), range(cols.start, cols.stop)
    return [(int(r), int(c), v) for r, c, v in zip(rows, cols, values.tolist())]


@given(crs_matrices())
def test_pass_count_follows_the_diagonal_or_position_key(m):
    ptr, cols = m.row_ptr, m.col_indices
    diagonals = len({cols[k] - r for r in range(m.rows) for k in range(ptr[r], ptr[r + 1])})
    longest = max((ptr[r + 1] - ptr[r] for r in range(m.rows)), default=0)
    expected = diagonals if diagonals <= longest else longest
    assert len(m._passes) == expected


@given(crs_matrices())
def test_a_group_on_contiguous_rows_and_one_diagonal_is_sliced(m):
    for rows, values, cols in m._passes:
        group = pass_entries(rows, values, cols)
        first = group[0][0]
        contiguous = [r for r, _, _ in group] == list(range(first, first + len(group)))
        one_diagonal = len({c - r for r, c, _ in group}) == 1
        sliced = isinstance(rows, slice)
        assert sliced == (contiguous and one_diagonal)
        if sliced:
            assert isinstance(cols, slice)
            assert rows.stop - rows.start == len(values) == cols.stop - cols.start


def test_a_position_group_on_one_diagonal_is_sliced():
    # 3 diagonals, rows of at most 2 entries: grouped by position; position 0 is the diagonal
    m = CrsMatrix(3, 4, [1.0, 2.0, 3.0, 4.0, 5.0], [0, 3, 1, 2, 3], [0, 2, 3, 5])
    (rows0, _, cols0), (rows1, _, cols1) = m._passes
    assert (rows0, cols0) == (slice(0, 3), slice(0, 3))
    assert rows1.tolist() == [0, 2] and cols1.tolist() == [3, 3]
