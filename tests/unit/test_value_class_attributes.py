"""Vector, DenseMatrix and CrsMatrix hold only the attributes they define.

Each declares __slots__: an instance has no __dict__, so setting a name
the class does not define is an AttributeError, for a checked
constructor's result and for arithmetic's alike.
"""

import pytest

from heatcg.linalg import CrsMatrix, DenseMatrix, Vector, dense_to_crs, mat_scale, vec_scale

_DENSE = DenseMatrix(2, 2, [2.0, -1.0, -1.0, 2.0])


@pytest.mark.parametrize(
    "value",
    [
        Vector([1.0, 2.0]),
        vec_scale(2.0, Vector([1.0, 2.0])),
        _DENSE,
        mat_scale(2.0, _DENSE),
        CrsMatrix(2, 2, [2.0, -1.0, -1.0, 2.0], [0, 1, 0, 1], [0, 2, 4]),
        dense_to_crs(_DENSE),
    ],
    ids=["vector", "vector_result", "dense", "dense_result", "crs", "crs_result"],
)
def test_an_undefined_attribute_is_refused(value):
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
