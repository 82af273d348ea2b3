"""numpy's running sum adds left to right, the order linalg's kernels rely on.

numpy does not document the order in which cumsum (add.accumulate) adds,
so this file is the guarantee: on the installed numpy, the forms the
kernels use must equal a pure-Python loop that starts at +0.0, bit for
bit, on inputs with signed zeros, subnormals and mixed magnitudes.
"""

import random
import struct

import numpy as np

from testutil import assert_same_bits


def fold(terms):
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def draw(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.15:
        return 0.0
    if kind < 0.3:
        return -0.0
    if kind < 0.45:
        return rng.choice((1.0, -1.0)) * rng.uniform(0.0, 2.0**-1022)  # subnormal
    # up to 1e300 apiece: sums of a few thousand terms stay finite
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)


def draw_terms(rng: random.Random, n: int) -> list[float]:
    terms = [draw(rng) for _ in range(n)]
    for _ in range(n // 4):  # exact cancellations make zero partial sums
        i = rng.randrange(n)
        terms.insert(rng.randrange(len(terms) + 1), -terms[i])
    return terms


def as_bytes(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def test_signed_zero_shows_why_the_sum_adds_positive_zero():
    terms = np.array([-0.0, -0.0])
    assert_same_bits(float(np.cumsum(terms)[-1]), -0.0)
    assert_same_bits(float(np.cumsum(terms)[-1] + 0.0), fold([-0.0, -0.0]))
    assert_same_bits(fold([-0.0, -0.0]), 0.0)


def test_vector_running_sum_matches_the_loop():
    rng = random.Random(20201)
    lengths = [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 127, 128, 129, 1000, 5000]
    lengths += [rng.randint(1, 2000) for _ in range(150)]
    for n in lengths:
        terms = draw_terms(rng, n)
        got = float(np.cumsum(np.array(terms))[-1] + 0.0)
        assert_same_bits(got, fold(terms), f"length {len(terms)}")


def test_row_running_sums_match_the_loop():
    rng = random.Random(20202)
    for _ in range(200):
        rows, cols = rng.randint(1, 40), rng.randint(1, 300)
        grid = np.array([draw_terms(rng, cols)[:cols] for _ in range(rows)])
        expected = as_bytes(fold(row) for row in grid.tolist())
        assert (np.cumsum(grid, axis=1)[:, -1] + 0.0).tobytes() == expected
        np.cumsum(grid, axis=1, out=grid)  # the in-place form matvec uses
        assert (grid[:, -1] + 0.0).tobytes() == expected
