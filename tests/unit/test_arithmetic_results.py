"""Results of internal arithmetic: trusted components, one overflow check."""

import numpy as np
import pytest

from heatcg.linalg import (
    CrsMatrix,
    DenseMatrix,
    Orientation,
    Vector,
    crs_matvec,
    matvec,
    vec_add,
    vec_scale,
    vec_sub,
)

BIG = 1e308


@pytest.mark.parametrize(
    "compute, op",
    [
        (lambda: vec_add(Vector([BIG]), Vector([BIG])), "vec_add"),
        (lambda: vec_scale(BIG, Vector([10.0])), "vec_scale"),
        (lambda: vec_sub(Vector([1.0, BIG]), Vector([1.0, -BIG])), "vec_sub"),
        (lambda: matvec(DenseMatrix(1, 2, [BIG, BIG]), Vector([1.0, 1.0])), "matvec"),
        (
            lambda: crs_matvec(CrsMatrix(2, 2, [1.0, BIG, BIG], [0, 0, 1], [0, 1, 3]),
                               Vector([1.0, 1.0])),
            "crs_matvec",
        ),
    ],
    ids=["vec_add", "vec_scale", "vec_sub", "matvec", "crs_matvec"],
)
def test_overflowed_result_raises_value_error(compute, op):
    with pytest.raises(ValueError, match=op):
        compute()


def test_inf_minus_inf_is_caught_too():
    # the row sum passes through inf and ends as nan
    with pytest.raises(ValueError, match="non-finite"):
        matvec(DenseMatrix(1, 3, [BIG, BIG, -BIG]), Vector([1.0, 1.0, 10.0]))


@pytest.mark.parametrize("factor", [2, 2.0, np.float64(2.0)])
def test_results_are_plain_float_tuples(factor):
    v = vec_scale(factor, Vector([1, 2]))
    assert v.components == (2.0, 4.0)
    assert all(type(x) is float for x in v.components)


def test_transpose_shares_the_checked_components():
    v = Vector([1.0, -0.0])
    row = v.transpose()
    assert row.components is v.components
    assert row.orientation is Orientation.ROW
    assert row.transpose() == v


def test_crs_to_dense_keeps_public_values():
    dense = CrsMatrix(2, 2, [-0.5, 3.0], [1, 0], [0, 1, 2]).to_dense()
    assert dense == DenseMatrix(2, 2, [0.0, -0.5, 3.0, 0.0])
