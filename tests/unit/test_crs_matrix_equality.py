"""CrsMatrix equality and hash are _checks' shared ones, over its five public fields.

A matrix built by the public constructor and its dense_to_crs twin (the
trusted producer) compare and hash equal, and the hash is that of the
(rows, cols, values, col_indices, row_ptr) tuple.
"""

from heatcg.linalg import CrsMatrix, DenseMatrix, dense_to_crs

FIELDS = (3, 3, (4.0, -1.0, -1.0, 4.0, 2.5), (0, 1, 0, 1, 2), (0, 2, 4, 5))


def test_a_public_matrix_equals_its_dense_to_crs_twin():
    public = CrsMatrix(*FIELDS)
    twin = dense_to_crs(DenseMatrix.from_rows([[4.0, -1.0, 0.0], [-1.0, 4.0, 0.0],
                                               [0.0, 0.0, 2.5]]))
    assert public == twin and not public != twin
    assert hash(public) == hash(twin) == hash(FIELDS)


def test_a_differing_field_is_unequal():
    public = CrsMatrix(*FIELDS)
    assert public != CrsMatrix(3, 4, *FIELDS[2:])
    assert public != CrsMatrix(3, 3, (4.0, -1.0, -1.0, 4.0, 2.0), *FIELDS[3:])
    assert public != CrsMatrix(3, 3, FIELDS[2], (0, 1, 0, 1, 1), FIELDS[4])
    assert public != CrsMatrix(3, 3, FIELDS[2], (0, 2, 0, 1, 2), (0, 2, 3, 5))


def test_other_types_are_not_equal():
    public = CrsMatrix(*FIELDS)
    assert public != public.to_dense()
    assert public != FIELDS
    assert public.__eq__(FIELDS) is NotImplemented
