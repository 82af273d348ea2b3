"""The exact oracle on a 3-cell system whose solution and figures are worked by hand.

A = [[3, -1, 0], [-1, 3, -1], [0, -1, 3]] and b = (1, 0, 0) give
x* = (8/21, 1/7, 1/21): 3*8/21 - 3/21 = 1, -8/21 + 9/21 - 1/21 = 0 and
-3/21 + 3/21 = 0. For x = (0.5, 0, 0), b - A x = (-1/2, 1/2, 0), so the
residual norm is sqrt(1/2), and x - x* = (5, -6, -2)/42, so the forward
error is sqrt(65)/42.
"""

import math
from fractions import Fraction

from exact_oracle import exact_figures, exact_solution

VALUES = (3.0, -1.0, -1.0, 3.0, -1.0, -1.0, 3.0)
COL_INDICES = (0, 1, 0, 1, 2, 1, 2)
ROW_PTR = (0, 2, 5, 7)
B = (1.0, 0.0, 0.0)


def test_the_exact_solution_is_the_hand_computed_one():
    assert exact_solution(VALUES, COL_INDICES, ROW_PTR, B) == [
        Fraction(8, 21), Fraction(1, 7), Fraction(1, 21)
    ]


def test_the_figures_of_a_wrong_solution_are_the_hand_computed_ones():
    residual, error = exact_figures(VALUES, COL_INDICES, ROW_PTR, B, (0.5, 0.0, 0.0))
    assert residual == math.sqrt(0.5)
    assert error == math.sqrt(Fraction(65, 42 * 42))


def test_the_float_nearest_the_solution_has_a_tiny_but_nonzero_residual():
    nearest = (8 / 21, 1 / 7, 1 / 21)
    residual, error = exact_figures(VALUES, COL_INDICES, ROW_PTR, B, nearest)
    assert 0.0 < residual < 1e-15
    assert 0.0 < error < 1e-16
