"""linalg._require_symmetric_tridiagonal refuses a matrix that is not square first.

The shape is named before any band or symmetry fault, and AssembledSystem
names a matrix fault before a fault of its vectors.
"""

import pytest

from heatcg.heat1d import AssembledSystem
from heatcg.linalg import CrsMatrix, Vector, _require_symmetric_tridiagonal

WIDE = CrsMatrix(2, 3, [1.0, 5.0], [0, 2], [0, 1, 2])  # (1, 2) has no mirror either


def test_a_2x3_matrix_is_refused_as_not_square():
    with pytest.raises(ValueError, match="^matrix must be square, got 2x3$"):
        _require_symmetric_tridiagonal(WIDE)


def test_an_assembled_system_names_the_matrix_before_its_vectors():
    with pytest.raises(ValueError, match="^matrix must be square, got 2x3$"):
        AssembledSystem(crs=WIDE, rhs=Vector([0.0]), cell_centers=Vector([0.5]).transpose())
