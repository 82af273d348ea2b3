"""Kernels against reference loops written here, bit for bit.

Each reference adds left to right from +0.0 in plain Python floats: the
contract the numpy kernels in linalg keep.
"""

import math
import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatcg.linalg import (
    CrsMatrix,
    DenseMatrix,
    Vector,
    crs_matvec,
    dot,
    l2_norm,
    matvec,
    vec_add,
    vec_scale,
    vec_sub,
)
from testutil import assert_components_bitwise, assert_same_bits


def ref_dot(xs, ys):
    acc = 0.0
    for x, y in zip(xs, ys):
        acc += x * y
    return acc


def ref_matvec(rows, cols, entries, xs):
    return [ref_dot(entries[r * cols : (r + 1) * cols], xs) for r in range(rows)]


def ref_crs_matvec(values, col_indices, row_ptr, xs):
    out = []
    for r in range(len(row_ptr) - 1):
        acc = 0.0
        for k in range(row_ptr[r], row_ptr[r + 1]):
            acc += values[k] * xs[col_indices[k]]
        out.append(acc)
    return out


# |x| <= 1e150 keeps every product and short sum finite; hypothesis also
# draws subnormals, and the signed zeros are drawn on purpose
_real = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)
_entry = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), _real)
_nonzero = _entry.filter(lambda x: x != 0.0)


def _vector(n):
    return st.lists(_entry, min_size=n, max_size=n)


@given(data=st.data(), n=st.integers(0, 12))
def test_dot_and_norm_match_the_loop(data, n):
    xs, ys = data.draw(_vector(n)), data.draw(_vector(n))
    assert_same_bits(dot(Vector(xs).transpose(), Vector(ys)), ref_dot(xs, ys))
    assert_same_bits(l2_norm(Vector(xs)), math.sqrt(ref_dot(xs, xs)))


@given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(0, 6))
def test_dense_product_matches_the_loop(data, rows, cols):
    entries = data.draw(_vector(rows * cols))
    xs = data.draw(_vector(cols))
    result = matvec(DenseMatrix(rows, cols, entries), Vector(xs))
    assert_components_bitwise(result.components, ref_matvec(rows, cols, entries, xs))


@given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(0, 6))
def test_sparse_product_matches_the_loop(data, rows, cols):
    col_indices, row_ptr = [], [0]
    for _ in range(rows):  # a row may store nothing
        stored = data.draw(st.lists(st.integers(0, cols - 1), unique=True)) if cols else []
        col_indices += sorted(stored)
        row_ptr.append(len(col_indices))
    values = data.draw(st.lists(_nonzero, min_size=len(col_indices), max_size=len(col_indices)))
    xs = data.draw(_vector(cols))
    result = crs_matvec(CrsMatrix(rows, cols, values, col_indices, row_ptr), Vector(xs))
    assert_components_bitwise(
        result.components, ref_crs_matvec(values, col_indices, row_ptr, xs)
    )


def test_long_mixed_magnitude_reductions_match_the_loop():
    # long enough for a blocked or pairwise sum to reorder the terms
    rng = random.Random(31)

    def draw(n):
        return [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(n)]

    for _ in range(40):
        n, rows = rng.randint(1, 300), rng.randint(1, 8)
        xs, ys, entries = draw(n), draw(n), draw(rows * n)
        assert_same_bits(dot(Vector(xs).transpose(), Vector(ys)), ref_dot(xs, ys))
        assert_same_bits(l2_norm(Vector(xs)), math.sqrt(ref_dot(xs, xs)))
        assert_components_bitwise(
            matvec(DenseMatrix(rows, n, entries), Vector(ys)).components,
            ref_matvec(rows, n, entries, ys),
        )


def test_empty_vector_reduces_to_positive_zero():
    empty = Vector([])
    assert_same_bits(dot(empty.transpose(), empty), 0.0)
    assert_same_bits(l2_norm(empty), 0.0)


def test_matrices_without_columns_give_positive_zeros():
    assert_components_bitwise(matvec(DenseMatrix(3, 0, []), Vector([])).components, [0.0] * 3)
    no_columns = CrsMatrix(3, 0, [], [], [0, 0, 0, 0])
    assert_components_bitwise(crs_matvec(no_columns, Vector([])).components, [0.0] * 3)


def test_negative_zero_terms_sum_to_positive_zero():
    minus = Vector([-0.0, -0.0])
    assert_same_bits(dot(minus.transpose(), Vector([1.0, 1.0])), 0.0)
    assert_components_bitwise(
        matvec(DenseMatrix(1, 2, [-0.0, 1.0]), Vector([1.0, -0.0])).components, [0.0]
    )
    rows_without_entries = CrsMatrix(3, 2, [-1.0], [1], [0, 0, 1, 1])
    assert_components_bitwise(
        crs_matvec(rows_without_entries, Vector([5.0, 0.0])).components, [0.0, 0.0, 0.0]
    )


BIG = 1e308


@pytest.mark.parametrize(
    "compute",
    [
        lambda: vec_add(Vector([BIG]), Vector([BIG])),
        lambda: vec_sub(Vector([-BIG]), Vector([BIG])),
        lambda: vec_scale(BIG, Vector([10.0])),
        lambda: matvec(DenseMatrix(1, 3, [BIG, BIG, -BIG]), Vector([1.0, 1.0, 10.0])),
        lambda: crs_matvec(CrsMatrix(1, 2, [BIG, BIG], [0, 1], [0, 2]), Vector([1.0, 1.0])),
    ],
    ids=["vec_add", "vec_sub", "vec_scale", "matvec", "crs_matvec"],
)
def test_overflow_raises_value_error_and_warns_nothing(compute):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            compute()


def test_overflowed_reductions_return_inf_and_warn_nothing():
    # like the loop: an overflowed sum is inf, and the caller decides
    big = Vector([BIG, BIG])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dot(big.transpose(), big) == math.inf
        assert l2_norm(big) == math.inf
