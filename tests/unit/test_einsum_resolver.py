"""linalg._einsum() resolves the einsum that the dense product and its probe call.

While np.einsum is numpy's own function, that is numpy's C c_einsum, the
function np.einsum(..., optimize=False) forwards its operands and out
to; so the bound product has the public call's bits. A replaced
np.einsum, such as a test's wrapper, is called instead, with
optimize=False, by the probe and by the product alike, and so is numpy's
own np.einsum on a numpy whose multiarray module has no c_einsum.
"""

import numpy as np
import pytest

from heatcg import linalg
from heatcg.linalg import DenseMatrix

try:
    from numpy._core.multiarray import c_einsum as C_EINSUM
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as C_EINSUM

REAL_EINSUM = np.einsum


@pytest.fixture
def fresh_probe():
    """The probe is not yet run when the test starts, and not when it ends."""
    linalg._einsum_folds.cache_clear()
    yield
    linalg._einsum_folds.cache_clear()


@pytest.fixture
def wrapper(monkeypatch):
    """np.einsum replaced by a wrapper that records each call's keyword arguments."""
    seen = []

    def einsum(*operands, **kwargs):
        seen.append(kwargs)
        return REAL_EINSUM(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    return seen


def probe_matrix() -> tuple[DenseMatrix, np.ndarray, np.ndarray]:
    """The probe's grid as a column-major matrix, its x, and the public einsum's product."""
    grid_t, x = linalg._einsum_probe()
    cols, rows = grid_t.shape
    want = REAL_EINSUM("ji,j->i", grid_t, x, optimize=False)
    return DenseMatrix._trusted(rows, cols, grid_t.T), x, want


def test_numpys_own_einsum_resolves_to_the_c_einsum():
    assert np.einsum is REAL_EINSUM
    assert linalg._einsum() is C_EINSUM


def test_the_c_einsum_has_the_public_einsums_bits_on_the_probe_grid():
    grid_t, x = linalg._einsum_probe()
    got = linalg._einsum()("ji,j->i", grid_t, x, out=np.empty(grid_t.shape[1]))
    want = np.einsum("ji,j->i", grid_t, x, optimize=False)
    assert got.tobytes() == want.tobytes()


def test_the_dense_kernel_binds_the_c_einsum_with_the_public_einsums_bits(monkeypatch):
    monkeypatch.setattr(linalg, "_einsum_folds", lambda: True)
    m, x, want = probe_matrix()
    out = np.empty(m.rows)
    product = linalg._dense_kernel(m, x, out)
    assert product.func is C_EINSUM
    assert product() is out
    assert out.tobytes() == want.tobytes()


def test_a_replaced_einsum_resolves_to_itself_with_optimize_false(wrapper):
    grid_t, x = linalg._einsum_probe()
    out = np.empty(grid_t.shape[1])
    assert linalg._einsum()("ji,j->i", grid_t, x, out=out) is out
    assert len(wrapper) == 1
    assert wrapper[0]["out"] is out
    assert wrapper[0]["optimize"] is False


def test_the_dense_kernel_calls_a_replaced_einsum_with_optimize_false(wrapper, monkeypatch):
    monkeypatch.setattr(linalg, "_einsum_folds", lambda: True)
    m, x, want = probe_matrix()
    out = np.empty(m.rows)
    linalg._dense_kernel(m, x, out)()
    assert len(wrapper) == 1
    assert wrapper[0]["out"] is out
    assert wrapper[0]["optimize"] is False
    assert out.tobytes() == want.tobytes()


def test_the_probe_calls_a_replaced_einsum_with_optimize_false(wrapper, fresh_probe):
    assert linalg._einsum_folds() is True
    assert len(wrapper) == 1
    assert wrapper[0]["optimize"] is False


def test_a_numpy_without_c_einsum_resolves_to_np_einsum_with_optimize_false(monkeypatch):
    monkeypatch.setattr(linalg, "_c_einsum", None)
    grid_t, x = linalg._einsum_probe()
    einsum = linalg._einsum()
    assert einsum.func is np.einsum._implementation
    assert einsum.keywords == {"optimize": False}
    got = einsum("ji,j->i", grid_t, x, out=np.empty(grid_t.shape[1]))
    assert got.tobytes() == REAL_EINSUM("ji,j->i", grid_t, x, optimize=False).tobytes()
