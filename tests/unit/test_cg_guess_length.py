"""A start of the wrong length is refused in the words of the function that got it."""

import pytest

from heatcg.cgsolver import CgConfig, cg_init, cg_solve
from heatcg.linalg import DenseMatrix, Vector

IDENTITY = DenseMatrix(2, 2, [1.0, 0.0, 0.0, 1.0])
B = Vector([1.0, 2.0])
THREE = Vector([0.0, 0.0, 0.0])


def test_cg_solve_names_itself_and_initial_guess():
    with pytest.raises(ValueError, match=r"^cg_solve: b and initial_guess lengths must match, "
                                         r"got 2 and 3$"):
        cg_solve(IDENTITY, B, CgConfig(initial_guess=THREE))


def test_cg_init_names_itself_and_x0():
    with pytest.raises(ValueError, match=r"^cg_init: b and x0 lengths must match, got 2 and 3$"):
        cg_init(IDENTITY, B, THREE)


def test_cg_init_refuses_a_missing_start():
    with pytest.raises(TypeError, match="x0 must be a Vector, got NoneType"):
        cg_init(IDENTITY, B, None)
