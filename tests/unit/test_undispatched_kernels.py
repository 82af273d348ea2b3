"""The running sum calls vdot past numpy's __array_function__ dispatch, with the same bits.

linalg resolves np.vdot to the implementation behind numpy's dispatcher
(NEP 18): the kernels pass only float64 ndarrays, which no override can
claim, so the dispatch is a fixed cost per call that never changes the
result. An ndarray subclass whose __array_function__ raises shows that
no dispatch runs; its values must still give the bits of the
left-to-right loop. The grid product calls only ufuncs, which never
take that dispatch, and the running sum of a one-row grid. A callable without an implementation behind it,
such as a numpy that has no dispatcher or a test's fake, is kept.
"""

import functools
import operator

import numpy as np
import pytest

from heatcg import linalg
from testutil import assert_same_bits


class Refusing(np.ndarray):
    """An array that fails any numpy function that dispatches on it."""

    def __array_function__(self, func, types, args, kwargs):
        raise AssertionError(f"np.{func.__name__} dispatched on a kernel operand")


def test_a_running_sum_skips_the_dispatch_and_keeps_the_loops_bits():
    values = [1e300, 1.0, -1e300, -0.0, 0.1, 5e-324] * 67
    terms = np.array(values).view(Refusing)
    with pytest.raises(AssertionError, match="dispatched"):
        np.vdot(terms, terms)  # the trap does fire
    want = functools.reduce(operator.add, values, 0.0)
    assert_same_bits(linalg._running_sum(terms), want, "running sum")
    assert_same_bits(linalg._running_sum(terms[::-1]), functools.reduce(operator.add, values[::-1], 0.0))


def test_a_callable_without_an_implementation_is_kept():
    def fake(*args, **kwargs):
        return None

    assert linalg._undispatched(fake) is fake



@pytest.mark.parametrize("rows", [1, 3])
def test_the_bound_grid_product_dispatches_nothing_and_keeps_the_loops_bits(rows):
    grid = [[1e300, 1.0, -1e300, -0.0, 0.1, 5e-324][r:] + [0.5] * r for r in range(rows)]
    xs = [1.0, 3.0, 1.0, 2.0, -0.7, 0.5]
    m = linalg.DenseMatrix._trusted(rows, 6, np.asfortranarray(grid).view(Refusing))
    x, out = np.array(xs).view(Refusing), np.empty(rows)
    got = linalg._grid_kernel(m, x, out)()
    assert got is out
    for r, row in enumerate(grid):
        want = functools.reduce(operator.add, map(operator.mul, row, xs), 0.0)
        assert_same_bits(got[r], want, f"row {r}")
