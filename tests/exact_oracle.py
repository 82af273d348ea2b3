"""Exact figures for a float solution of a tridiagonal system, in rational arithmetic.

Every binary64 value is a rational number, and Fraction(float) converts
it exactly, so a system's CRS entries and right-hand side b become the
exact system the solver was given. The Thomas algorithm (Gaussian
elimination on the three diagonals, without pivoting, which a symmetric
positive definite matrix does not need) then solves it exactly, in O(N)
Fraction operations whose size grows with N.

exact_figures returns two figures of a float solution x, each computed
exactly and rounded once to a float before its square root: the true
residual norm ||b - A x||_2, which the solver's recurrence residual only
estimates, and the forward error ||x - x*||_2 against the exact discrete
solution x*, which leaves out the discretisation's own error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _diagonals(values: Sequence[float], col_indices: Sequence[int],
               row_ptr: Sequence[int]) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """A tridiagonal CRS matrix's entries (i, i-1), (i, i) and (i, i+1) per row i, exactly."""
    n = len(row_ptr) - 1
    lower, diagonal, upper = ([Fraction(0)] * n for _ in range(3))
    for i in range(n):
        for k in range(row_ptr[i], row_ptr[i + 1]):
            offset = col_indices[k] - i
            assert abs(offset) <= 1, f"entry ({i},{col_indices[k]}) is off the three diagonals"
            (lower, diagonal, upper)[offset + 1][i] = Fraction(values[k])
    return lower, diagonal, upper


def exact_solution(values: Sequence[float], col_indices: Sequence[int],
                   row_ptr: Sequence[int], b: Sequence[float]) -> list[Fraction]:
    """x* with A x* = b exactly, A the tridiagonal CRS matrix, by the Thomas algorithm."""
    lower, diagonal, upper = _diagonals(values, col_indices, row_ptr)
    n = len(diagonal)
    # forward sweep: row i becomes x[i] + c[i] x[i+1] = d[i]
    c, d = [Fraction(0)] * n, [Fraction(0)] * n
    for i in range(n):
        pivot = diagonal[i] - (lower[i] * c[i - 1] if i else 0)
        c[i] = upper[i] / pivot
        d[i] = (Fraction(b[i]) - (lower[i] * d[i - 1] if i else 0)) / pivot
    x = d[:]
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def exact_figures(values: Sequence[float], col_indices: Sequence[int], row_ptr: Sequence[int],
                  b: Sequence[float], x: Sequence[float]) -> tuple[float, float]:
    """(||b - A x||_2, ||x - x*||_2) of the float solution x, each exact until its square root."""
    lower, diagonal, upper = _diagonals(values, col_indices, row_ptr)
    exact_x = [Fraction(value) for value in x]
    n = len(exact_x)
    residual_squared = Fraction(0)
    for i in range(n):
        product = diagonal[i] * exact_x[i]
        if i:
            product += lower[i] * exact_x[i - 1]
        if i + 1 < n:
            product += upper[i] * exact_x[i + 1]
        residual_squared += (Fraction(b[i]) - product) ** 2
    solution = exact_solution(values, col_indices, row_ptr, b)
    error_squared = sum(((a - e) ** 2 for a, e in zip(exact_x, solution)), Fraction(0))
    return math.sqrt(residual_squared), math.sqrt(error_squared)
