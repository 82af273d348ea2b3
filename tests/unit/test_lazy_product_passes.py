"""A CrsMatrix builds its product passes on its first product, not when it is made.

assemble builds a CRS matrix for every solve, and a dense solve never
multiplies by it. So making a matrix, to_dense, ==, hash and repr build
no passes, whether the matrix came from the public constructor or from
dense_to_crs. The first crs_matvec builds them once, and a later
product reuses them.
"""

import pytest

from heatcg import linalg
from heatcg.linalg import CrsMatrix, DenseMatrix, Vector, crs_matvec, dense_to_crs

ROWS = [[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]]


@pytest.fixture
def builds(monkeypatch):
    """The calls to linalg._product_passes made while a test runs."""
    calls = []
    real = linalg._product_passes

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_product_passes", counted)
    return calls


def public() -> CrsMatrix:
    return CrsMatrix(3, 3, [4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0], [0, 1, 0, 1, 2, 1, 2], [0, 2, 5, 7])


def compressed() -> CrsMatrix:
    return dense_to_crs(DenseMatrix.from_rows(ROWS))


def test_making_a_public_matrix_builds_no_passes(builds):
    public()
    assert builds == []


def test_making_a_compressed_matrix_builds_no_passes(builds):
    compressed()
    assert builds == []


def test_to_dense_of_a_public_matrix_builds_no_passes(builds):
    assert public().to_dense().to_rows() == ROWS
    assert builds == []


def test_to_dense_of_a_compressed_matrix_builds_no_passes(builds):
    assert compressed().to_dense().to_rows() == ROWS
    assert builds == []


def test_equality_of_a_public_and_a_compressed_matrix_builds_no_passes(builds):
    assert public() == compressed()
    assert builds == []


def test_the_hash_of_a_public_matrix_builds_no_passes(builds):
    hash(public())
    assert builds == []


def test_the_hash_of_a_compressed_matrix_builds_no_passes(builds):
    hash(compressed())
    assert builds == []


def test_the_repr_of_a_public_matrix_builds_no_passes(builds):
    repr(public())
    assert builds == []


def test_the_repr_of_a_compressed_matrix_builds_no_passes(builds):
    repr(compressed())
    assert builds == []


def test_the_first_product_builds_the_passes_once(builds):
    m = public()
    assert builds == []
    assert crs_matvec(m, Vector([1.0, 2.0, 3.0])).components == (2.0, 4.0, 10.0)
    assert len(builds) == 1


def test_a_second_product_reuses_the_passes(builds):
    m = compressed()
    x = Vector([1.0, 2.0, 3.0])
    first = crs_matvec(m, x)
    passes = m._passes
    assert crs_matvec(m, x) == first
    assert m._passes is passes
    assert len(builds) == 1
