"""Values heatcg computes itself: one overflow check, and index checks at the boundary."""

import warnings

import pytest

from heatcg.heat1d import HeatProblem, analytic_solution, assemble
from heatcg.linalg import CrsMatrix, DenseMatrix, mat_scale


@pytest.mark.parametrize(
    "compute",
    [
        lambda: assemble(HeatProblem(gamma=1e308, domain_length=1e-300)),
        lambda: analytic_solution(HeatProblem(boundary_left=-1e308, boundary_right=1e308)),
        lambda: mat_scale(1e308, DenseMatrix(1, 1, [10.0])),
    ],
    ids=["assemble", "analytic_solution", "mat_scale"],
)
def test_overflow_is_one_value_error_and_no_warning(compute):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            compute()


def test_mat_scale_result_is_a_plain_float_matrix():
    scaled = mat_scale(3, DenseMatrix(1, 3, [1, -0.0, 2.5]))
    assert scaled.entries == (3.0, -0.0, 7.5)
    assert [type(x) for x in scaled.entries] == [float, float, float]
    assert scaled == DenseMatrix(1, 3, [3.0, -0.0, 7.5])


@pytest.mark.parametrize(
    "col_indices, row_ptr, error, text",
    [
        ([True], [0, 1], TypeError, r"col_indices\[0\] must be an integer"),
        ([-1], [0, 1], ValueError, r"col_indices\[0\]"),
        ([0], [False, 1], TypeError, r"row_ptr\[0\] must be an integer"),
        ([0], [0, 1.0], TypeError, r"row_ptr\[1\] must be an integer"),
    ],
    ids=["bool-column", "negative-column", "bool-offset", "float-offset"],
)
def test_crs_index_checks_name_the_entry(col_indices, row_ptr, error, text):
    with pytest.raises(error, match=text):
        CrsMatrix(1, 2, [1.0], col_indices, row_ptr)
