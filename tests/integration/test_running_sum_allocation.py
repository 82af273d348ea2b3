"""A running sum writes no array: its allocation does not grow with the terms.

linalg._running_sum runs np.vdot's non-BLAS loop over the terms and a
cached zero-stride view of 1.0, so on 4,000 terms it allocates a scalar
and, on a length's first call, that view: a few hundred bytes. A prefix
array of the terms (np.add.accumulate, np.cumsum) would take 32,000 bytes.
"""

import tracemalloc

import numpy as np

from heatcg import linalg

N = 4000
BOUND = 4000  # an eighth of one array of N floats


def peak_of(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_running_sum_of_4000_terms_peaks_below_4000_bytes():
    terms = np.linspace(-1.0, 1.0, N + 1)[:N]
    first = peak_of(lambda: linalg._running_sum(terms))  # builds the length's view
    again = peak_of(lambda: linalg._running_sum(terms))
    assert first < BOUND and again < BOUND, f"peaks {first} and {again} bytes"


def test_a_strided_running_sum_of_4000_terms_peaks_below_4000_bytes():
    grid = np.linspace(-1.0, 1.0, 2 * N).reshape(N, 2)
    linalg._running_sum(grid[:, 0])
    peak = peak_of(lambda: linalg._running_sum(grid[::-1, 0]))
    assert peak < BOUND, f"peak {peak} bytes"
