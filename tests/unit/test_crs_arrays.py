"""Array-backed CRS storage: accessors convert on read, identity is kept."""

import pytest

from heatcg.heat1d import AssembledSystem, HeatProblem, assemble
from heatcg.linalg import CrsMatrix, DenseMatrix, Vector, dense_to_crs

ROWS = [[4.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-0.5, 0.0, 2.5]]


def _public() -> CrsMatrix:
    return CrsMatrix(3, 3, [4.0, -1.0, -0.5, 2.5], [0, 1, 0, 2], [0, 2, 2, 4])


def _exact_types(m: CrsMatrix) -> None:
    for name, kind in (("values", float), ("col_indices", int), ("row_ptr", int)):
        got = getattr(m, name)
        assert type(got) is tuple, name
        assert {type(x) for x in got} <= {kind}, f"{name}: {[type(x) for x in got]}"


@pytest.mark.parametrize(
    "build",
    [
        _public,
        lambda: dense_to_crs(DenseMatrix.from_rows(ROWS)),
        lambda: assemble(HeatProblem(number_of_cells=5)).crs,
        lambda: assemble(HeatProblem(number_of_cells=1)).crs,
        lambda: dense_to_crs(DenseMatrix(0, 0, [])),
    ],
    ids=["public", "dense_to_crs", "assemble", "assemble_one_cell", "empty"],
)
def test_accessors_return_tuples_of_plain_floats_and_ints(build):
    m = build()
    _exact_types(m)
    assert len(m.row_ptr) == m.rows + 1
    assert m.nnz() == len(m.values) == len(m.col_indices)


def test_public_and_converted_matrices_are_equal_with_the_same_hash_and_repr():
    public = _public()
    converted = dense_to_crs(DenseMatrix.from_rows(ROWS))
    assert public == converted
    assert hash(public) == hash(converted)
    assert repr(public) == repr(converted)
    assert repr(public) == "CrsMatrix(3, 3, [4.0, -1.0, -0.5, 2.5], [0, 1, 0, 2], [0, 2, 2, 4])"
    assert hash(public) == hash(
        (3, 3, (4.0, -1.0, -0.5, 2.5), (0, 1, 0, 2), (0, 2, 2, 4))
    )


def test_matrices_differing_in_one_value_or_index_are_unequal():
    public = _public()
    assert public != CrsMatrix(3, 3, [4.0, -1.0, -0.5, 2.0], [0, 1, 0, 2], [0, 2, 2, 4])
    assert public != CrsMatrix(3, 3, [4.0, -1.0, -0.5, 2.5], [0, 2, 0, 2], [0, 2, 2, 4])
    assert public != CrsMatrix(3, 3, [4.0, -1.0, -0.5, 2.5], [0, 1, 0, 2], [0, 2, 3, 4])
    assert public != CrsMatrix(3, 4, [4.0, -1.0, -0.5, 2.5], [0, 1, 0, 2], [0, 2, 2, 4])


def test_assembled_matrix_equals_its_public_twin():
    m = assemble(HeatProblem(number_of_cells=3, domain_length=3.0)).crs
    twin = CrsMatrix(3, 3, list(m.values), list(m.col_indices), list(m.row_ptr))
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    assert m.values == (3.0, -1.0, -1.0, 2.0, -1.0, -1.0, 3.0)


def _system(n, values, col_indices, row_ptr):
    return AssembledSystem(
        crs=CrsMatrix(n, n, values, col_indices, row_ptr),
        rhs=Vector([0.0] * n),
        cell_centers=Vector([0.0] * n),
    )


def test_band_check_rejects_an_entry_above_the_band_in_plain_numbers():
    with pytest.raises(ValueError) as info:
        _system(3, [2.0, -1.0, 0.25, -1.0, 2.0, 2.0], [0, 1, 2, 0, 1, 2], [0, 3, 5, 6])
    assert str(info.value) == "matrix must be tridiagonal: nonzero 0.25 at (0,2)"


def test_band_check_rejects_an_asymmetric_last_pair_in_plain_numbers():
    values = [2.0, -1.0, -1.0, 2.0, -1.0, -1.5, 2.0]
    with pytest.raises(ValueError) as info:
        _system(3, values, [0, 1, 0, 1, 2, 1, 2], [0, 2, 5, 7])
    assert str(info.value) == "matrix must be symmetric: (1,2) == -1.0 but (2,1) == -1.5"


def test_band_check_reports_the_first_offending_entry_in_row_order():
    with pytest.raises(ValueError, match=r"nonzero 5.0 at \(1,3\)$"):
        _system(
            4,
            [1.0, 1.0, 5.0, 7.0, 1.0, 1.0],
            [0, 1, 3, 0, 2, 3],
            [0, 1, 3, 5, 6],
        )
