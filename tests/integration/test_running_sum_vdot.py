"""linalg._running_sum is np.vdot's non-BLAS loop: the left-to-right sum from +0.0.

_running_sum(terms) is float(np.vdot(terms, ones)) with ones a read-only
zero-stride view of 1.0, which vdot reshapes as a view. numpy's BLAS check
refuses the zero stride, so vdot runs its plain C loop, sum = 0; sum +=
t * 1.0, in index order.
That must equal a pure-Python loop that starts at +0.0, bit for bit, on
signed zeros, subnormals, magnitudes from 1e-300 to 1e300 and x, -x pairs
that cancel, for a contiguous, a strided (a grid column, as the one-row
dense product passes it) and a negative-stride operand; the result is a
Python float, never -0.0, and the terms are left as they were.
"""

import random

import numpy as np
from hypothesis import given, strategies as st

from heatcg import linalg
from testutil import assert_same_bits, float_bits

LENGTHS = (0, 1, 2, 7, 8, 9, 127, 128, 129, 400, 1601)
LAYOUTS = ("contiguous", "strided", "reversed")


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


def draw_terms(rng: random.Random, n: int) -> list[float]:
    """n terms, a third of them replaced by x, -x pairs whose partial sums cancel."""
    terms = [draw(rng) for _ in range(n)]
    for at in rng.sample(range(n), n // 3):
        if at + 1 < n:
            terms[at + 1] = -terms[at]
    return terms


def laid_out(terms: list[float], layout: str) -> np.ndarray:
    """An operand whose components in index order are terms, in the given memory layout."""
    if layout == "contiguous":
        return np.array(terms)
    if layout == "strided":  # a column of a C-contiguous grid: stride 3 floats
        grid = np.full((len(terms), 3), np.nan)
        grid[:, 0] = terms
        return grid[:, 0]
    return np.array(terms[::-1])[::-1]  # stride -1 float


def check(terms: list[float], layout: str) -> None:
    p = laid_out(terms, layout)
    before = p.tobytes()
    got = linalg._running_sum(p)
    label = f"{layout}, length {len(terms)}"
    assert type(got) is float, f"{label}: {type(got).__name__}"
    assert_same_bits(got, fold(terms), label)
    assert float_bits(got) != float_bits(-0.0), f"{label}: -0.0"
    assert p.tobytes() == before, f"{label}: terms changed"


def test_fixed_seeds_match_the_loop_at_every_length_and_layout():
    for seed in (20301, 20302, 20303):
        rng = random.Random(seed)
        for n in LENGTHS:
            terms = draw_terms(rng, n)
            for layout in LAYOUTS:
                check(terms, layout)


def test_edge_cases_match_the_loop():
    for terms in ([], [-0.0], [-0.0, -0.0], [-0.0] * 129, [5e-324, -5e-324, -0.0],
                  [1e300, 1.0, -1e300], [1e-300, 1e300, -1e300], [-2.0**-1074] * 9,
                  [1.0, 1e-16, 1e-16, -1.0], [1e300, -1e300] * 64):
        for layout in LAYOUTS:
            check(terms, layout)


TERM = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)]),
    st.floats(-(2.0**-1022), 2.0**-1022),  # subnormals and zeros
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 299)),
)


@given(st.lists(st.tuples(TERM, st.booleans()), max_size=200), st.sampled_from(LAYOUTS))
def test_random_terms_and_cancelling_pairs_match_the_loop(pairs, layout):
    terms = []
    for t, cancel in pairs:  # a flagged term is followed by its negation
        terms += [t, -t] if cancel else [t]
    check(terms, layout)


def test_the_ones_view_is_read_only_and_zero_stride():
    for n in (0, 1, 400):
        ones = linalg._ones(n)
        assert ones.shape == (n,) and ones.strides == (0,) and not ones.flags.writeable
        assert (ones == 1.0).all() and ones.dtype == np.float64
        assert linalg._ones(n) is ones  # one cached view per length
