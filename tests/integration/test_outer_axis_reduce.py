"""numpy's outer-axis reduce adds each lane in column order, the dense product's form.

linalg's dense product writes its terms into a C-contiguous cols x rows
array, one lane per matrix row, and sums them with
np.add.reduce(terms, axis=0, out=out) followed by + 0.0. numpy does not
document the order of that reduce, so this file is the guarantee: on the
installed numpy, every lane must equal a pure-Python loop over its terms
that starts at +0.0, bit for bit, on signed zeros, subnormals, magnitudes
from 1e-300 to 1e300 and terms that cancel exactly. A single lane is a
contiguous reduction, which numpy sums pairwise, so the product of a
one-row matrix is checked against the loop too.
"""

import random

import numpy as np
import pytest

from heatcg.linalg import DenseMatrix, Vector, matvec
from testutil import assert_components_bitwise, assert_same_bits


def fold(terms):
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def draw(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.1:
        return rng.choice((0.0, -0.0))
    if kind < 0.25:
        return rng.choice((1.0, -1.0)) * rng.uniform(0.0, 2.0**-1022)  # subnormal
    return rng.choice((1.0, -1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)


def draw_lane(rng: random.Random, n: int) -> list[float]:
    terms = [draw(rng) for _ in range(n)]
    for _ in range(n // 3):  # x then -x: partial sums that return to zero
        if n >= 2:
            at = rng.randrange(n - 1)
            terms[at + 1] = -terms[at]
    return terms


def reduce_lanes(lanes: list[list[float]], cols: int) -> np.ndarray:
    """The lanes as the columns of a C-contiguous cols x rows array, reduced as linalg does."""
    terms = np.ascontiguousarray(np.array(lanes, dtype=np.float64).reshape(len(lanes), cols).T)
    assert terms.flags.c_contiguous and terms.shape == (cols, len(lanes))
    out = np.empty(len(lanes))
    np.add.reduce(terms, axis=0, out=out)
    return np.add(out, 0.0, out=out)


@pytest.mark.parametrize("rows", [2, 3, 8, 9, 17, 200])
def test_every_lane_of_an_outer_axis_reduce_is_its_running_sum(rows):
    rng = random.Random(20400 + rows)
    for cols in (0, 1, 2, 8, 9, 300):
        lanes = [draw_lane(rng, cols) for _ in range(rows)]
        out = reduce_lanes(lanes, cols)
        for i, lane in enumerate(lanes):
            assert_same_bits(out.item(i), fold(lane), f"lane {i} of {cols} x {rows}")


@pytest.mark.parametrize(
    "lanes",
    [
        [[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [5e-324, -5e-324]],
        [[1e300, 1.0, -1e300], [1e-300, 1e300, -1e300], [-0.0, 5e-324, -5e-324]],
    ],
)
def test_edge_lanes_match_the_loop(lanes):
    out = reduce_lanes(lanes, len(lanes[0]))
    for i, lane in enumerate(lanes):
        assert_same_bits(out.item(i), fold(lane), f"lane {lane}")


def test_one_row_products_match_the_loop():
    # one lane: a raw (cols, 1) reduce sums pairwise and misses the loop's bits
    rng = random.Random(20410)
    for cols in [300] * 40 + [0, 1, 2, 3]:
        row = draw_lane(rng, cols)
        xs = [rng.choice((1.0, -1.0, 0.5, 2.0, 0.0)) for _ in range(cols)]
        product = matvec(DenseMatrix(1, cols, row), Vector(xs))
        want = fold([a * x for a, x in zip(row, xs)])
        assert_components_bitwise(product.components, [want], f"1 x {cols}")
