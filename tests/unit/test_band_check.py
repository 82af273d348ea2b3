"""linalg._require_symmetric_tridiagonal refuses a square CRS matrix off that shape.

It names the first entry off the three central diagonals, in row order,
before any asymmetry; then the first i whose (i, i+1) and (i+1, i)
differ, an absent entry counting as 0.0 and printed as 0.0. A pure-Python
check over the dense rows must give the same verdict and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcg.linalg import CrsMatrix, DenseMatrix, _require_symmetric_tridiagonal, dense_to_crs


def refusal(m: CrsMatrix):
    try:
        _require_symmetric_tridiagonal(m)
    except ValueError as error:
        return str(error)
    return None


def reference(rows: list[list[float]]):
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if abs(r - c) > 1 and v != 0.0:
                return f"matrix must be tridiagonal: nonzero {v!r} at ({r},{c})"
    for i in range(len(rows) - 1):
        upper, lower = rows[i][i + 1], rows[i + 1][i]
        if upper != lower:
            return (f"matrix must be symmetric: ({i},{i + 1}) == {upper!r} "
                    f"but ({i + 1},{i}) == {lower!r}")
    return None


def test_the_first_off_band_entry_in_row_order_is_named():
    # (1,3) comes before (2,0) and (3,0) in row order, though its column is larger
    m = dense_to_crs(DenseMatrix.from_rows(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 4.0], [6.0, 0.0, 1.0, 0.0], [7.0, 0.0, 0.0, 1.0]]
    ))
    assert refusal(m) == "matrix must be tridiagonal: nonzero 4.0 at (1,3)"


def test_an_off_band_entry_is_named_before_an_earlier_asymmetric_pair():
    m = dense_to_crs(DenseMatrix.from_rows([[1.0, -1.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert refusal(m) == "matrix must be symmetric: (0,1) == -1.0 but (1,0) == -2.0"
    m = dense_to_crs(DenseMatrix.from_rows([[1.0, -1.0, 0.0], [-2.0, 1.0, 0.0], [9.0, 0.0, 1.0]]))
    assert refusal(m) == "matrix must be tridiagonal: nonzero 9.0 at (2,0)"


def test_the_first_asymmetric_pair_is_named():
    m = dense_to_crs(DenseMatrix.from_rows(
        [[2.0, -1.0, 0.0, 0.0], [-1.0, 2.0, 3.0, 0.0], [0.0, -3.0, 2.0, 5.0], [0.0, 0.0, 4.0, 2.0]]
    ))
    assert refusal(m) == "matrix must be symmetric: (1,2) == 3.0 but (2,1) == -3.0"


def test_a_missing_lower_mirror_counts_as_zero():
    m = CrsMatrix(2, 2, [2.0, -1.0, 2.0], [0, 1, 1], [0, 2, 3])
    assert refusal(m) == "matrix must be symmetric: (0,1) == -1.0 but (1,0) == 0.0"


def test_a_missing_upper_mirror_counts_as_zero():
    m = CrsMatrix(3, 3, [2.0, -1.5, 2.0, 2.0], [0, 0, 1, 2], [0, 1, 3, 4])
    assert refusal(m) == "matrix must be symmetric: (0,1) == 0.0 but (1,0) == -1.5"


@pytest.mark.parametrize(
    "m",
    [
        CrsMatrix(0, 0, [], [], [0]),
        CrsMatrix(3, 3, [], [], [0, 0, 0, 0]),
        CrsMatrix(1, 1, [5.0], [0], [0, 1]),
        CrsMatrix(3, 3, [-1.0, -1.0, 2.0, -1.0, -1.0], [1, 0, 1, 2, 1], [0, 1, 4, 5]),
    ],
    ids=["0x0", "no_entries", "1x1", "absent_diagonal_entries"],
)
def test_symmetric_tridiagonal_matrices_pass(m):
    assert refusal(m) is None


NEAR = (0.0, -1.0, 2.0, -0.5)


@st.composite
def square_rows(draw):
    """Small square grids: a band of a few shared values, mirrored or not, and off-band entries.

    One integer picks the whole band, a base-4 digit per slot, and one
    more the off-band entries, a bit per slot: a draw per slot would spend
    most of a unit test's time budget on generation.
    """
    n = draw(st.integers(0, 6))
    mirrored = draw(st.booleans())
    digits = draw(st.integers(0, 4 ** (3 * n) - 1))
    far = [(r, c) for r in range(n) for c in range(n) if abs(r - c) > 1]
    bits = draw(st.integers(0, 2 ** len(far) - 1)) if draw(st.booleans()) else 0
    rows = [[0.0] * n for _ in range(n)]
    for r in range(n):
        for c in range(max(r - 1, 0), min(r + 2, n)):
            digits, d = divmod(digits, 4)
            rows[r][c] = rows[c][r] if mirrored and c < r else NEAR[d]
    for k, (r, c) in enumerate(far):
        if bits >> k & 1:
            rows[r][c] = 3.0
    return rows


# 25 grids, not the profile's 60: hypothesis spends about 1 ms on each, and a
# unit test has 100 ms (testpyramid.DEFAULT_UNIT_BUDGET_MS) on a busy host too
@settings(max_examples=25)
@given(square_rows())
def test_the_check_agrees_with_a_python_check_of_the_dense_rows(rows):
    m = dense_to_crs(DenseMatrix.from_rows(rows))
    assert refusal(m) == reference(m.to_dense().to_rows())
