"""The kernels call vdot and einsum past numpy's __array_function__ dispatch, with the same bits.

linalg resolves np.vdot, and np.einsum where it binds a dense product,
to the implementation behind numpy's dispatcher (NEP 18): the kernels
pass only float64 ndarrays, which no override can claim, so the
dispatch is a fixed cost per call that never changes the result. An
ndarray subclass whose __array_function__ raises shows that no dispatch
runs; its values must still give the bits of the left-to-right loop and
of the dispatched einsum. A callable without an implementation behind
it, such as a numpy that has no dispatcher or a test's fake, is kept.
"""

import functools
import operator

import numpy as np
import pytest

from heatcg import linalg
from heatcg.linalg import DenseMatrix
from testutil import assert_components_bitwise, assert_same_bits


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


def test_the_bound_dense_product_has_the_dispatched_einsums_bits():
    if not linalg._einsum_folds():
        pytest.skip("this numpy's einsum fails the probe: the pair runs, not einsum")
    grid_t, x = linalg._einsum_probe()
    cols, rows = grid_t.shape
    m = DenseMatrix._trusted(rows, cols, grid_t.T)  # column-major: its transpose is grid_t
    out = np.empty(rows)
    got = linalg._dense_kernel(m, x.view(Refusing), out)()
    want = np.einsum("ji,j->i", grid_t, x, optimize=False)
    assert got is out
    assert_components_bitwise(got.tolist(), want.tolist(), "dense product")
