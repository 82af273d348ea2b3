"""Every public linalg operation refuses an operand of the wrong type with a TypeError.

The message names the operation and the argument, "{op}: {argument} must
be a/an {type}, got {type}", and is raised before any private attribute of
the operand is read, so no AttributeError and no length or orientation
message stands in for it.
"""

import re

import pytest

from heatcg.linalg import (
    DenseMatrix,
    Vector,
    crs_matvec,
    dense_to_crs,
    dot,
    l2_norm,
    mat_scale,
    matvec,
    vec_add,
    vec_scale,
    vec_sub,
)

V = Vector([1.0, 2.0])
ROW = V.transpose()
DENSE = DenseMatrix(2, 2, [1.0, 0.0, 0.0, 2.0])
CRS = dense_to_crs(DENSE)

CASES = {
    "vec_scale": (lambda: vec_scale(2.0, [1.0, 2.0]), "vec_scale: v must be a Vector, got list"),
    "vec_add": (lambda: vec_add(V, (1.0, 2.0)), "vec_add: v2 must be a Vector, got tuple"),
    "vec_sub": (lambda: vec_sub([1.0], V), "vec_sub: v1 must be a Vector, got list"),
    "dot": (lambda: dot([1.0, 2.0], V), "dot: v1 must be a Vector, got list"),
    "l2_norm": (lambda: l2_norm([3.0, 4.0]), "l2_norm: v must be a Vector, got list"),
    "mat_scale": (lambda: mat_scale(2.0, CRS), "mat_scale: m must be a DenseMatrix, got CrsMatrix"),
    "matvec": (lambda: matvec(CRS, V), "matvec: m must be a DenseMatrix, got CrsMatrix"),
    "crs_matvec": (lambda: crs_matvec(DENSE, V),
                   "crs_matvec: m must be a CrsMatrix, got DenseMatrix"),
    "dense_to_crs": (lambda: dense_to_crs(CRS),
                     "dense_to_crs: m must be a DenseMatrix, got CrsMatrix"),
}


@pytest.mark.parametrize("op", sorted(CASES))
def test_a_wrong_typed_operand_is_a_type_error_naming_the_operation(op):
    call, message = CASES[op]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


OTHER_OPERANDS = {
    "vec_add v1": (lambda: vec_add([1.0, 2.0], V), "vec_add: v1 must be a Vector, got list"),
    "vec_sub v2": (lambda: vec_sub(V, None), "vec_sub: v2 must be a Vector, got NoneType"),
    "dot v2": (lambda: dot(ROW, [1.0, 2.0]), "dot: v2 must be a Vector, got list"),
    "matvec v": (lambda: matvec(DENSE, [1.0, 2.0]), "matvec: v must be a Vector, got list"),
    "crs_matvec v": (lambda: crs_matvec(CRS, ROW.components),
                     "crs_matvec: v must be a Vector, got tuple"),
}


@pytest.mark.parametrize("operand", sorted(OTHER_OPERANDS))
def test_the_other_operand_is_named_too(operand):
    call, message = OTHER_OPERANDS[operand]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_a_bad_scale_factor_is_named_before_the_operand():
    with pytest.raises(TypeError, match="^scale factor must be a real number, got str$"):
        vec_scale("2", [1.0])
    with pytest.raises(TypeError, match="^scale factor must be a real number, got str$"):
        mat_scale("2", CRS)
