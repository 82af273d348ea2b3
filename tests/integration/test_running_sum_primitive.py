"""The running sums behind every reduction, called as linalg calls them.

linalg._running_sum is np.add.accumulate(p).item(-1) + 0.0, and the
dense product sums its rows in place with
np.add.accumulate(grid, axis=1, out=grid). np.cumsum gives the same
prefixes behind a slower Python wrapper (test_summation_order.py pins
cumsum against the loop). Both forms must equal a pure-Python loop that
starts at +0.0, bit for bit, and the 1-D form must equal cumsum, on
signed zeros, subnormals, magnitudes from 1e-300 to 1e300 and terms that
cancel exactly.
"""

import random

import numpy as np
import pytest

from heatcg import linalg
from testutil import assert_same_bits


def fold(terms):
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def primitive(terms: np.ndarray) -> float:
    return np.add.accumulate(terms).item(-1) + 0.0


def draw(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.1:
        return rng.choice((0.0, -0.0))
    if kind < 0.25:
        return rng.choice((1.0, -1.0)) * rng.uniform(0.0, 2.0**-1022)  # subnormal
    return rng.choice((1.0, -1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)


def draw_terms(rng: random.Random, n: int) -> list[float]:
    terms = [draw(rng) for _ in range(n)]
    for _ in range(n // 3):  # x then -x: partial sums that return to zero
        x = rng.choice(terms)
        at = rng.randrange(len(terms) + 1)
        terms[at:at] = [x, -x]
    return terms


@pytest.mark.parametrize(
    "terms",
    [[-0.0, -0.0], [5e-324, -5e-324, -0.0], [1e300, 1.0, -1e300], [1e-300, 1e300, -1e300]],
)
def test_edge_cases_match_the_loop_and_cumsum(terms):
    p = np.array(terms)
    assert_same_bits(primitive(p), fold(terms))
    assert_same_bits(primitive(p), np.cumsum(p)[-1] + 0.0)


def test_random_terms_match_the_loop_and_cumsum():
    rng = random.Random(20207)
    for n in [1, 2, 3, 16, 17, 400, 1601] + [rng.randint(1, 1500) for _ in range(40)]:
        terms = draw_terms(rng, n)
        p = np.array(terms)
        got = primitive(p)
        assert_same_bits(got, fold(terms), f"length {len(terms)}")
        assert_same_bits(got, np.cumsum(p)[-1] + 0.0, f"cumsum, length {len(terms)}")


def test_in_place_row_sums_match_the_loop():
    rng = random.Random(20209)
    for _ in range(60):
        rows, cols = rng.randint(1, 30), rng.randint(1, 300)
        grid = np.array([draw_terms(rng, cols)[:cols] for _ in range(rows)])
        expected = [fold(row) for row in grid.tolist()]
        np.add.accumulate(grid, axis=1, out=grid)  # the dense product's form
        for r, want in enumerate(expected):
            assert_same_bits(grid[r, -1] + 0.0, want, f"row {r} of {rows} x {cols}")


def test_linalg_running_sum_is_the_primitive():
    rng = random.Random(20208)
    for n in (0, 1, 2, 399, 400):
        p = np.array([draw(rng) for _ in range(n)])
        assert_same_bits(linalg._running_sum(p), primitive(p) if n else 0.0)
