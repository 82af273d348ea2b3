"""An arithmetic result keeps its components in one float64 array.

Reading .components converts them afresh instead of caching a tuple of
float objects (32 bytes a component beside the array's 8), so callers
that keep many results, such as every solution of a batch, stay small.
"""

import gc
import tracemalloc

from heatcg.linalg import Vector, vec_scale

N = 400


def test_reading_components_retains_about_eight_bytes_a_component():
    base = Vector([float(i) for i in range(N)])
    gc.collect()
    tracemalloc.start()
    try:
        result = vec_scale(0.5, base)
        assert len(result.components) == N
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 8 * N + 1024, f"{retained} bytes held by a {N}-component result"
    assert result[N - 1] == 0.5 * (N - 1)
