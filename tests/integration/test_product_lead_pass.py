"""The sparse product starts from a pass over every row where it can, with a loop's bits.

linalg._crs_kernel runs pass 0 or pass 1, when it is sliced over every
row, first, as out = terms + 0.0 in place of filling out with 0.0: a
row's first two terms a and b then sum (0.0 + b) + a, bitwise
(0.0 + a) + b. Any other matrix fills out first. Either way each row
must equal a pure-Python loop over its stored entries in column order
from +0.0, bit for bit, with signed zeros and subnormals among the
operands, whatever out and the scratch array held before the call. The
matrices below cover the three cases: a full pass first (an upper band
on a full diagonal, by offset or by position in the row), a full pass
second (the heat matrix's tridiagonal pattern) and none: a full
diagonal third, whose terms would round otherwise if it led, or no full
diagonal at all.
"""

import random
from collections import Counter

import numpy as np
import pytest

from heatcg import linalg
from heatcg.heat1d import HeatProblem, assemble
from heatcg.linalg import CrsMatrix
from testutil import assert_components_bitwise

TINY = (5e-324, 1e-310, 2.2250738585072014e-308)


def entry(rng: random.Random) -> float:
    """A nonzero stored value: a subnormal, the smallest normal, or an ordinary float."""
    magnitude = rng.choice(TINY + (rng.uniform(0.1, 10.0),) * 3)
    return rng.choice((1.0, -1.0)) * magnitude


def operand(rng: random.Random) -> float:
    magnitude = rng.choice((0.0,) + TINY + (rng.uniform(0.1, 10.0), 1e150))
    return rng.choice((1.0, -1.0)) * magnitude


def matrix(rng: random.Random, n: int, offsets: dict[int, float]) -> dict[tuple[int, int], float]:
    """Entries on the given diagonals of an n x n matrix, each diagonal kept with its probability."""
    return {(i, i + k): entry(rng) for k, p in offsets.items()
            for i in range(max(0, -k), min(n, n - k)) if rng.random() < p}


def far_entries(rng: random.Random, n: int) -> dict[tuple[int, int], float]:
    """A full diagonal and one entry far right in some rows: more diagonals than row entries."""
    entries = {(i, i): entry(rng) for i in range(n)}
    entries.update({(i, rng.randrange(i + 1, n)): entry(rng)
                    for i in range(n - 1) if rng.random() < 0.5})
    return entries


def patterns(rng: random.Random, n: int):
    yield matrix(rng, n, {0: 1.0, 1: 0.7, 3: 0.5})  # full pass first, by offset
    yield far_entries(rng, n)  # full pass first, by position
    yield matrix(rng, n, {-1: 0.7, 0: 1.0, 1: 0.7})  # full pass second
    yield matrix(rng, n, {-2: 1.0, -1: 0.7, 0: 1.0})  # full pass third
    yield matrix(rng, n, {-1: 0.6, 0: 0.8, 1: 0.6})  # a zero on the diagonal
    yield {(i, j): entry(rng) for i in range(n) for j in range(n) if rng.random() < 0.3}


def crs(n: int, entries: dict[tuple[int, int], float]) -> CrsMatrix:
    keys = sorted(entries)
    row_ptr = [sum(1 for i, _ in keys if i < r) for r in range(n + 1)]
    return CrsMatrix(n, n, [entries[k] for k in keys], [j for _, j in keys], row_ptr)


def loop_product(n: int, entries: dict[tuple[int, int], float], xs: list[float]) -> list[float]:
    out = [0.0] * n
    for (i, j) in sorted(entries):
        out[i] += entries[(i, j)] * xs[j]
    return out


def full(m: CrsMatrix) -> int | None:
    """The first pass sliced over every row, or None."""
    for k, (rows, _, _) in enumerate(m._passes):
        if isinstance(rows, slice) and rows == slice(0, m.rows):
            return k
    return None


def lead(m: CrsMatrix) -> int | None:
    """The pass the kernel runs first in place of the fill, or None when it fills."""
    k = full(m)
    return k if k is not None and k < 2 else None


def product(m: CrsMatrix, xs: list[float]) -> list[float]:
    """The kernel's product into out and scratch full of NaN; a second call reads its own out."""
    out, scratch = np.full(m.rows, np.nan), np.full(m.rows, np.nan)
    bound = linalg._crs_kernel(m, np.array(xs), out, scratch)
    first = bound().tolist()
    assert_components_bitwise(bound().tolist(), first, "second call")
    return first


def stored(m: CrsMatrix) -> dict[tuple[int, int], float]:
    rows = [i for i in range(m.rows) for _ in range(m.row_ptr[i], m.row_ptr[i + 1])]
    return dict(zip(zip(rows, m.col_indices), m.values))


def test_every_row_sums_like_the_loop_whichever_pass_starts_it():
    rng = random.Random(35)
    cases = Counter()  # by the first full pass
    for trial in range(150):
        n = rng.randint(1, 9)
        for entries in patterns(rng, n):
            if not entries:
                continue
            m = crs(n, entries)
            cases[full(m)] += 1
            xs = [operand(rng) for _ in range(n)]
            assert_components_bitwise(product(m, xs), loop_product(n, entries, xs),
                                      f"trial {trial}, {n} x {n}, lead {lead(m)}")
    assert all(cases[k] >= 100 for k in (0, 1, 2, None)), cases


def test_a_negative_zero_term_sums_to_positive_zero():
    # the diagonal pass leads; b = -0.0 makes every diagonal term -0.0, which a
    # product written straight into out would keep
    m = crs(3, {(0, 0): 2.0, (1, 0): -1.0, (1, 1): 2.0, (2, 2): 2.0})
    assert lead(m) == 1
    got = product(m, [0.0, -0.0, -0.0])
    assert_components_bitwise(got, [0.0, 0.0, 0.0])


# at N = 2 both rows are full, so the passes go by position and gather
@pytest.mark.parametrize("cells, first", [(1, 0), (2, None), (3, 1), (95, 1), (200, 1)])
def test_the_heat_matrix_leads_with_its_diagonal(cells, first):
    m = assemble(HeatProblem(number_of_cells=cells)).crs
    assert lead(m) == first
    rng = random.Random(cells)
    xs = [operand(rng) for _ in range(cells)]
    assert_components_bitwise(product(m, xs), loop_product(cells, stored(m), xs))
